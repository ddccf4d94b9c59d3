# Usage: cmake -DBENCHES=<bin;bin...> -DCSV_DIR=<dir> -P bench_smoke.cmake
#
# Runs each bench binary at N=2000, m=4, one repeat with DSUD_CSV=CSV_DIR and
# fails on a non-zero exit or when an expected table CSV is missing.
file(REMOVE_RECURSE "${CSV_DIR}")
file(MAKE_DIRECTORY "${CSV_DIR}")
set(ENV{DSUD_N} 2000)
set(ENV{DSUD_M} 4)
set(ENV{DSUD_REPEATS} 1)
set(ENV{DSUD_CSV} "${CSV_DIR}")

foreach(bench IN LISTS BENCHES)
  execute_process(COMMAND "${bench}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} exited with ${rc}")
  endif()
endforeach()

foreach(table IN ITEMS
    fig_9a_bandwidth_vs_site_count_independent
    fig_9b_bandwidth_vs_site_count_anticorrelated
    completion_and_latency_vs_transport_fault_rate
    degraded_completion_one_site_killed_mid_query)
  if(NOT EXISTS "${CSV_DIR}/${table}.csv")
    message(FATAL_ERROR "missing ${CSV_DIR}/${table}.csv")
  endif()
endforeach()
