# Runs `dqctl ${ARGS}` and requires a usage error: exit code 2 and a
# message on stderr that says "--${FLAG} ${PHRASE}".
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${DQCTL} ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "dqctl ${ARGS}: expected exit 2, got ${rc}\n${err}")
endif()
if(NOT err MATCHES "--${FLAG} ${PHRASE}")
  message(FATAL_ERROR
          "dqctl ${ARGS}: stderr does not say '--${FLAG} ${PHRASE}'\n${err}")
endif()
