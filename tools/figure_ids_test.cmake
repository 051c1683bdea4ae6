# Every figure id the usage text lists renders with --quick.
execute_process(COMMAND ${DQCTL} ERROR_VARIABLE usage OUTPUT_QUIET
                RESULT_VARIABLE rc)
string(REGEX MATCH "dqctl figure ID[^(]*\\(([^)]*)\\)" line "${usage}")
string(REPLACE " " ";" ids "${CMAKE_MATCH_1}")
list(LENGTH ids count)
if(count LESS 16)
  message(FATAL_ERROR "usage lists ${count} figure ids: ${CMAKE_MATCH_1}")
endif()
foreach(id ${ids})
  execute_process(COMMAND ${DQCTL} figure ${id} --quick
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR out STREQUAL "")
    message(FATAL_ERROR "dqctl figure ${id} --quick failed (${rc}): ${err}")
  endif()
endforeach()
