# `dqctl serve` writes a whole line's decision while the producer is in
# the middle of the next line. The producer writes one line and half of
# the next, sleeps 2 s, then writes the rest; `timeout 1 head -n 1` must
# print the first decision. This runs dqctl's own unsynced std::cin,
# which the gtests do not.
execute_process(
  COMMAND sh -c "printf '{\"t\":1,\"host\":1,\"dest\":9}\\n{\"t\":2,\"ho'; sleep 2; printf 'st\":2,\"dest\":9}\\n'"
  COMMAND ${DQCTL} serve --hosts 64 --shards 2
  COMMAND timeout 1 head -n 1
  OUTPUT_VARIABLE first
  RESULTS_VARIABLE codes
  ERROR_QUIET
  TIMEOUT 30)
if(NOT first MATCHES "^{\"seq\":1,")
  message(FATAL_ERROR "no decision within 1 s of a whole line while the "
                      "next was half written (exit codes ${codes}): "
                      "'${first}'")
endif()
