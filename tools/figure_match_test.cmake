# One definition per figure: for a figure the campaign catalogue
# declares, `dqctl figure ID` prints exactly the file
# `dqctl campaign run` writes for it.
set(workdir ${CMAKE_CURRENT_BINARY_DIR}/dqctl_figure_matches_campaign)
file(REMOVE_RECURSE ${workdir})
execute_process(COMMAND ${DQCTL} campaign run fig01 fig04 --quick --csv
                        --no-cache --out ${workdir}
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dqctl campaign run fig01 fig04 failed: ${rc}")
endif()
foreach(id fig1a fig1b fig4)
  execute_process(COMMAND ${DQCTL} figure ${id} --quick --csv
                  RESULT_VARIABLE rc OUTPUT_VARIABLE printed)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dqctl figure ${id} failed: ${rc}")
  endif()
  file(READ ${workdir}/${id}.csv written)
  if(NOT printed STREQUAL written)
    message(FATAL_ERROR "dqctl figure ${id} differs from the campaign's "
                        "${id}.csv:\n${printed}\nvs\n${written}")
  endif()
endforeach()
file(REMOVE_RECURSE ${workdir})
