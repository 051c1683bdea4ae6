# `dqctl serve` on its default input, stdin, writes the same bytes as
# with --input FILE and reads about as fast. The flow file is a
# synthetic run's decision stream with malformed lines put in: decision
# lines parse as flows, and its summary line is one more parse error.
# A checkpoint taken at --stop-after counts the malformed lines before
# the stop and none after it, at any shard count and on either input.
set(dir ${CMAKE_CURRENT_BINARY_DIR}/serve-stdin)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})
set(flows ${dir}/flows.ndjson)
set(hosts --hosts 4096)

execute_process(COMMAND ${DQCTL} serve --synthetic --flows 200000 ${hosts}
                        --out ${flows}
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dqctl serve --synthetic failed: ${rc}")
endif()

# Three malformed lines before flows 1, 50001, ${stop} and 150001, and
# right after flow ${stop}.
set(stop 100000)
math(EXPR after_stop "${stop} + 1")
set(bad "not a flow\n{\"t\":1,\"host\":\n{\"t\":1,\"host\":99999,\"dest\":2}\n")
file(READ ${flows} text)
set(spliced "")
set(pos 0)
set(garbage 0)
foreach(seq 1 50001 ${stop} ${after_stop} 150001)
  string(FIND "${text}" "{\"seq\":${seq}," at)
  math(EXPR len "${at} - ${pos}")
  string(SUBSTRING "${text}" ${pos} ${len} part)
  string(APPEND spliced "${part}${bad}")
  set(pos ${at})
  math(EXPR garbage "${garbage} + 3")
  if(seq EQUAL stop)
    set(garbage_at_stop ${garbage})
  endif()
endforeach()
string(SUBSTRING "${text}" ${pos} -1 part)
file(WRITE ${flows} "${spliced}${part}")
math(EXPR errors "${garbage} + 1")

# Reads the flows/s figure from the stderr summary line and checks the
# parse-error count there.
function(flows_per_sec stderr out)
  if(NOT stderr MATCHES "200000 flows in [0-9.]+ s \\(([0-9]+) flows/s\\), ${errors} parse errors")
    message(FATAL_ERROR "unexpected serve summary: ${stderr}")
  endif()
  set(${out} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

set(best_file 0)
set(best_stdin 0)
foreach(shards 1 4)
  execute_process(COMMAND ${DQCTL} serve --input ${flows} ${hosts}
                          --shards ${shards}
                          --out ${dir}/file-${shards}.ndjson
                  RESULT_VARIABLE rc ERROR_VARIABLE file_err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dqctl serve --input failed: ${rc}\n${file_err}")
  endif()
  execute_process(COMMAND ${DQCTL} serve ${hosts} --shards ${shards}
                  INPUT_FILE ${flows}
                  OUTPUT_FILE ${dir}/stdin-${shards}.ndjson
                  RESULT_VARIABLE rc ERROR_VARIABLE stdin_err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dqctl serve on stdin failed: ${rc}\n${stdin_err}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${dir}/file-${shards}.ndjson
                          ${dir}/stdin-${shards}.ndjson
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "--shards ${shards}: stdin and --input decisions differ")
  endif()
  flows_per_sec("${file_err}" file_rate)
  flows_per_sec("${stdin_err}" stdin_rate)
  message(STATUS "--shards ${shards}: --input ${file_rate} flows/s, "
                 "stdin ${stdin_rate} flows/s")
  if(file_rate GREATER best_file)
    set(best_file ${file_rate})
  endif()
  if(stdin_rate GREATER best_stdin)
    set(best_stdin ${stdin_rate})
  endif()

  execute_process(COMMAND ${DQCTL} serve --input ${flows} ${hosts}
                          --shards ${shards} --stop-after ${stop}
                          --checkpoint-out ${dir}/stop-file-${shards}.json
                          --out ${dir}/stop-file-${shards}.ndjson
                  RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dqctl serve --input --stop-after failed: ${rc}")
  endif()
  execute_process(COMMAND ${DQCTL} serve ${hosts} --shards ${shards}
                          --stop-after ${stop}
                          --checkpoint-out ${dir}/stop-stdin-${shards}.json
                  INPUT_FILE ${flows}
                  OUTPUT_FILE ${dir}/stop-stdin-${shards}.ndjson
                  RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dqctl serve --stop-after on stdin failed: ${rc}")
  endif()
endforeach()

file(READ ${dir}/stop-file-1.json checkpoint)
foreach(other stop-stdin-1 stop-file-4 stop-stdin-4)
  file(READ ${dir}/${other}.json other_checkpoint)
  if(NOT other_checkpoint STREQUAL checkpoint)
    message(FATAL_ERROR "${other}.json differs from stop-file-1.json")
  endif()
endforeach()
if(NOT checkpoint MATCHES "\"parse_errors\":([0-9]+)")
  message(FATAL_ERROR "the checkpoint has no parse_errors")
endif()
if(NOT CMAKE_MATCH_1 EQUAL garbage_at_stop)
  message(FATAL_ERROR "the checkpoint at flow ${stop} counts ${CMAKE_MATCH_1} "
                      "parse errors; ${garbage_at_stop} lines before it "
                      "are malformed")
endif()

# The faster of each side's two runs, so one run slowed by a busy host
# does not decide the check.
math(EXPR stdin_times_3 "${best_stdin} * 3")
if(stdin_times_3 LESS best_file)
  message(FATAL_ERROR "stdin reads at ${best_stdin} flows/s, under a third "
                      "of --input's ${best_file}")
endif()

file(REMOVE_RECURSE ${dir})
