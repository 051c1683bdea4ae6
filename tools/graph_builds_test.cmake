# Each distinct routed graph is built once per cold campaign run and
# not at all on a warm one: `dqctl campaign run fig01 fig04` (a star and
# one power-law graph) profiles two build_network spans cold and none
# warm, and both runs write the same figure files.
set(workdir ${CMAKE_CURRENT_BINARY_DIR}/dqctl_campaign_builds_each_graph_once)
file(REMOVE_RECURSE ${workdir})
file(MAKE_DIRECTORY ${workdir})

foreach(run cold warm)
  execute_process(COMMAND ${DQCTL} campaign run fig01 fig04 --quick
                          --cache-dir ${workdir}/cache
                          --profile-out ${workdir}/${run}.json
                          --out ${workdir}/${run}
                  RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${run} dqctl campaign run failed: ${rc}")
  endif()
  file(READ ${workdir}/${run}.json profile)
  string(REGEX MATCHALL "\"name\":\"build_network\"" builds "${profile}")
  list(LENGTH builds count_${run})
endforeach()

if(NOT count_cold EQUAL 2)
  message(FATAL_ERROR "cold run profiled ${count_cold} build_network "
                      "spans, expected 2 (one per distinct graph)")
endif()
if(NOT count_warm EQUAL 0)
  message(FATAL_ERROR "warm run profiled ${count_warm} build_network "
                      "spans, expected 0")
endif()

file(GLOB figures RELATIVE ${workdir}/cold ${workdir}/cold/*.txt)
list(LENGTH figures count)
if(count EQUAL 0)
  message(FATAL_ERROR "cold run wrote no figure files")
endif()
foreach(figure ${figures})
  file(READ ${workdir}/cold/${figure} cold)
  file(READ ${workdir}/warm/${figure} warm)
  if(NOT cold STREQUAL warm)
    message(FATAL_ERROR "${figure} differs between the cold and warm runs")
  endif()
endforeach()
file(REMOVE_RECURSE ${workdir})
