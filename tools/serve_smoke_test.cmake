# `dqctl serve` end-to-end smoke: synthesize a department trace, replay
# it through the streaming service at 1 and 4 shards, and require the
# merged decision NDJSON (including the summary line) to be
# byte-identical — the determinism contract of docs/SERVE.md. Then
# exercise the graceful-shutdown path: --stop-after N must produce
# exactly the decision prefix of an uninterrupted run. Last, a
# shared-bitmap run with a partial last estimator block must write the
# same decisions and checkpoint at 1 and 3 shards.
set(dir ${CMAKE_CURRENT_BINARY_DIR}/serve-smoke)
file(MAKE_DIRECTORY ${dir})
set(trace ${dir}/trace.csv)
set(census --normal 40 --servers 2 --p2p 2 --blaster 4 --welchia 4)

execute_process(COMMAND ${DQCTL} trace ${census} --duration 600
                        --out ${trace}
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dqctl trace failed: ${rc}")
endif()

foreach(shards 1 4)
  execute_process(COMMAND ${DQCTL} serve --trace ${trace} ${census}
                          --shards ${shards} --failure-ratio 0.7
                          --min-attempts 3
                          --out ${dir}/decisions-${shards}.ndjson
                          --metrics-out ${dir}/metrics-${shards}.json
                  RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dqctl serve --shards ${shards} failed: ${rc}")
  endif()
endforeach()

file(READ ${dir}/decisions-1.ndjson one)
file(READ ${dir}/decisions-4.ndjson four)
if(NOT one STREQUAL four)
  message(FATAL_ERROR "decision stream differs between 1 and 4 shards")
endif()
string(LENGTH "${one}" bytes)
if(bytes EQUAL 0)
  message(FATAL_ERROR "decision stream is empty")
endif()
if(NOT one MATCHES "\"summary\"")
  message(FATAL_ERROR "decision stream is missing the summary line")
endif()

# Metrics snapshots were written and parse as JSON-ish content.
file(READ ${dir}/metrics-4.json metrics)
if(NOT metrics MATCHES "serve.flows_ingested")
  message(FATAL_ERROR "metrics snapshot missing serve counters")
endif()

# Graceful shutdown: SIGTERM after 200 flows == the 200-flow prefix.
execute_process(COMMAND ${DQCTL} serve --trace ${trace} ${census}
                        --shards 4 --failure-ratio 0.7 --min-attempts 3
                        --stop-after 200
                        --out ${dir}/interrupted.ndjson
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dqctl serve --stop-after failed: ${rc}")
endif()
file(STRINGS ${dir}/interrupted.ndjson interrupted_lines)
list(LENGTH interrupted_lines n)
if(NOT n EQUAL 201)  # 200 decisions + summary line
  message(FATAL_ERROR "interrupted run wrote ${n} lines, expected 201")
endif()
file(READ ${dir}/interrupted.ndjson interrupted)
if(NOT interrupted MATCHES "\"interrupted\":true")
  message(FATAL_ERROR "interrupted summary not flagged")
endif()
# Its decision lines are a byte-prefix of the uninterrupted stream.
string(FIND "${interrupted}" "{\"summary\"" cut)
string(SUBSTRING "${interrupted}" 0 ${cut} prefix)
string(LENGTH "${prefix}" prefix_len)
string(SUBSTRING "${four}" 0 ${prefix_len} full_prefix)
if(NOT prefix STREQUAL full_prefix)
  message(FATAL_ERROR "interrupted decisions are not a prefix of the "
                      "uninterrupted stream")
endif()

# The shared-bitmap backend partitions hosts in whole estimator blocks;
# 1,000 hosts in blocks of 64 leave a partial last block. Decisions and
# the final checkpoint must not depend on the shard count. The flows are
# a synthetic run's decision lines (its summary line is one parse error).
set(flows ${dir}/flows.ndjson)
set(compact --hosts 1000 --estimator shared_bitmap --block-hosts 64)
execute_process(COMMAND ${DQCTL} serve --synthetic --flows 50000
                        --hosts 1000 --out ${flows}
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dqctl serve --synthetic failed: ${rc}")
endif()
foreach(shards 1 3)
  execute_process(COMMAND ${DQCTL} serve --input ${flows} ${compact}
                          --shards ${shards}
                          --out ${dir}/compact-${shards}.ndjson
                          --checkpoint-out ${dir}/compact-${shards}.json
                  RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dqctl serve ${compact} --shards ${shards} "
                        "failed: ${rc}")
  endif()
endforeach()
foreach(ext ndjson json)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${dir}/compact-1.${ext} ${dir}/compact-3.${ext}
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "compact-1.${ext} and compact-3.${ext} differ: the "
                        "shared-bitmap run depends on the shard count")
  endif()
endforeach()
file(SIZE ${dir}/compact-1.json checkpoint_bytes)
if(checkpoint_bytes EQUAL 0)
  message(FATAL_ERROR "the shared-bitmap checkpoint is empty")
endif()

file(REMOVE_RECURSE ${dir})
