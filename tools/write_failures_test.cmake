# Every whole-file output of dqctl fails loudly when the disk refuses a
# write. Each run below goes under a one-block file-size limit with
# SIGXFSZ ignored, so a write past the limit fails with EFBIG the way it
# would on a full disk. Each must exit nonzero, name the file it could
# not write on stderr, and leave no temp file behind. Reading a
# directory as a file is an error too.
set(workdir ${CMAKE_CURRENT_BINARY_DIR}/dqctl_write_failures)
file(REMOVE_RECURSE ${workdir})
file(MAKE_DIRECTORY ${workdir})

# expect_write_failure(<stderr regex> <dqctl args...>)
function(expect_write_failure file_regex)
  string(REPLACE ";" " " args "${ARGN}")
  execute_process(
    COMMAND sh -c "trap '' XFSZ; ulimit -f 1; exec \"${DQCTL}\" ${args}"
    WORKING_DIRECTORY ${workdir}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR
            "dqctl ${args}: exit 0 despite a failed write\n${err}")
  endif()
  if(NOT err MATCHES "${file_regex}")
    message(FATAL_ERROR
            "dqctl ${args}: stderr does not name '${file_regex}'\n${err}")
  endif()
  file(GLOB_RECURSE leftovers ${workdir}/*.tmp*)
  if(leftovers)
    message(FATAL_ERROR "dqctl ${args}: left temp files ${leftovers}")
  endif()
endfunction()

expect_write_failure("D/fig2\\.csv"
                     campaign run fig02 --no-cache --csv --out D)
expect_write_failure("T/fig01_[a-z0-9-]+\\.ndjson"
                     campaign run fig01 --quick --no-cache --trace-dir T)
expect_write_failure("t\\.csv" trace --duration 60 --out t.csv)
expect_write_failure("prom\\.txt"
                     serve --synthetic --flows 200000 --hosts 4096
                     --shards 2 --no-decisions --prom-out prom.txt)
expect_write_failure("m\\.ndjson"
                     serve --synthetic --flows 20000 --hosts 1024
                     --no-decisions --metrics-out m.ndjson
                     --metrics-interval 5000)
expect_write_failure("ck\\.json"
                     serve --synthetic --flows 20000 --hosts 1024
                     --no-decisions --checkpoint-out ck.json)
expect_write_failure("C/[0-9a-f]+\\.json"
                     campaign run fig01 --quick --cache-dir C)

execute_process(COMMAND ${DQCTL} obs summarize ${workdir}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
          "dqctl obs summarize DIR: expected exit 1, got ${rc}\n${err}")
endif()
file(REMOVE_RECURSE ${workdir})
