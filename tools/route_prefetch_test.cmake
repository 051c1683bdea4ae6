# The forward phase prefetches each fresh packet's first-hop route a
# few packets ahead (ShardedSimulation::phase_forward through
# RoutedTopology::prefetch_route). The compiler can drop that prefetch
# when the code around it changes shape: with the all-pairs table held
# in a std::optional, GCC 12 at -O2 did, and the forward phase of
# perf_microbench's backbone1k ran ~30% slower while every test passed.
# This check disassembles dq_sim and fails unless phase_forward()
# contains a prefetcht0. It reports itself skipped where it cannot
# judge: an unoptimized build (prefetch_route is not inlined there), a
# target other than x86-64, or no objdump.
if(NOT CONFIG MATCHES "^(RelWithDebInfo|Release)$")
  message("route prefetch check skipped: build type '${CONFIG}' is not "
          "RelWithDebInfo or Release")
  return()
endif()
if(NOT PROCESSOR MATCHES "^(x86_64|AMD64|amd64)$")
  message("route prefetch check skipped: target '${PROCESSOR}' is not x86-64")
  return()
endif()
if(NOT OBJDUMP OR NOT EXISTS "${OBJDUMP}")
  message("route prefetch check skipped: objdump not found")
  return()
endif()

execute_process(COMMAND ${OBJDUMP} -d -C ${LIB}
                OUTPUT_VARIABLE disassembly
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "objdump -d -C ${LIB} failed (${rc}): ${err}")
endif()

# objdump ends each function's listing with a blank line.
set(header "<dq::sim::ShardedSimulation::phase_forward()>:")
string(FIND "${disassembly}" "${header}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${LIB} has no out-of-line ${header}")
endif()
string(SUBSTRING "${disassembly}" ${at} -1 body)
string(FIND "${body}" "\n\n" end)
string(SUBSTRING "${body}" 0 ${end} body)
string(FIND "${body}" "prefetcht0" hit)
if(hit EQUAL -1)
  message(FATAL_ERROR "ShardedSimulation::phase_forward() in ${LIB} has no "
                      "prefetcht0: the forward phase lost its route "
                      "prefetch (RoutedTopology::prefetch_route)")
endif()
message("phase_forward() keeps its route prefetch")
