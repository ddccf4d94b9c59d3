# Usage: cmake -DBENCHES=<bin;bin...> -DCSV_DIR=<dir> [-DN=<n>] [-DM=<m>]
#              [-DGOLDEN_DIR=<dir>] -P bench_smoke.cmake
#
# Runs each bench binary at DSUD_N=N (default 2000), DSUD_M=M (default 4),
# one repeat, with DSUD_CSV=CSV_DIR, and fails on a non-zero exit.
#
# Smoke mode (no GOLDEN_DIR): fails when an expected table CSV is missing.
#
# Golden mode: every <table>.csv under GOLDEN_DIR must have been written to
# CSV_DIR and match it cell for cell, except in the columns whose header
# ends in " ms" (wall time).  The remaining columns are tuple counts and
# answer counts, which are deterministic for a given scale and seed.  To
# re-record after a change that is meant to move a count, copy the fresh
# CSVs from CSV_DIR over the goldens and say why in the commit.
if(NOT DEFINED N)
  set(N 2000)
endif()
if(NOT DEFINED M)
  set(M 4)
endif()
file(REMOVE_RECURSE "${CSV_DIR}")
file(MAKE_DIRECTORY "${CSV_DIR}")
set(ENV{DSUD_N} ${N})
set(ENV{DSUD_M} ${M})
set(ENV{DSUD_REPEATS} 1)
set(ENV{DSUD_CSV} "${CSV_DIR}")
# The remaining scale knobs keep their bench defaults.
unset(ENV{DSUD_Q})
unset(ENV{DSUD_SEED})
unset(ENV{DSUD_SCALE})

foreach(bench IN LISTS BENCHES)
  execute_process(COMMAND "${bench}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} exited with ${rc}")
  endif()
endforeach()

if(NOT DEFINED GOLDEN_DIR)
  foreach(table IN ITEMS
      fig_9a_bandwidth_vs_site_count_independent
      fig_9b_bandwidth_vs_site_count_anticorrelated
      completion_and_latency_vs_transport_fault_rate
      degraded_completion_one_site_killed_mid_query)
    if(NOT EXISTS "${CSV_DIR}/${table}.csv")
      message(FATAL_ERROR "missing ${CSV_DIR}/${table}.csv")
    endif()
  endforeach()
  return()
endif()

file(GLOB goldens "${GOLDEN_DIR}/*.csv")
if(NOT goldens)
  message(FATAL_ERROR "no golden CSVs under ${GOLDEN_DIR}")
endif()
set(failures 0)
foreach(golden IN LISTS goldens)
  get_filename_component(table "${golden}" NAME)
  set(actual "${CSV_DIR}/${table}")
  if(NOT EXISTS "${actual}")
    message(SEND_ERROR "${table}: not written by any bench")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  file(STRINGS "${golden}" want)
  file(STRINGS "${actual}" got)
  list(LENGTH want wantRows)
  list(LENGTH got gotRows)
  if(NOT wantRows EQUAL gotRows)
    message(SEND_ERROR "${table}: ${gotRows} rows, golden has ${wantRows}")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  # Column indices to compare: every header not ending in " ms".
  list(GET want 0 header)
  string(REPLACE "," ";" header "${header}")
  set(columns "")
  set(index 0)
  foreach(name IN LISTS header)
    if(NOT name MATCHES " ms$")
      list(APPEND columns ${index})
    endif()
    math(EXPR index "${index} + 1")
  endforeach()
  math(EXPR last "${wantRows} - 1")
  foreach(row RANGE ${last})
    list(GET want ${row} wantLine)
    list(GET got ${row} gotLine)
    string(REPLACE "," ";" wantCells "${wantLine}")
    string(REPLACE "," ";" gotCells "${gotLine}")
    list(LENGTH wantCells wantWidth)
    list(LENGTH gotCells gotWidth)
    if(NOT wantWidth EQUAL gotWidth)
      message(SEND_ERROR "${table} row ${row}: ${gotWidth} cells, golden has "
                         "${wantWidth}")
      math(EXPR failures "${failures} + 1")
      continue()
    endif()
    foreach(column IN LISTS columns)
      list(GET wantCells ${column} expected)
      list(GET gotCells ${column} observed)
      if(NOT observed STREQUAL expected)
        list(GET header ${column} name)
        message(SEND_ERROR "${table} row ${row} column '${name}': got "
                           "${observed}, golden ${expected}")
        math(EXPR failures "${failures} + 1")
      endif()
    endforeach()
  endforeach()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} golden mismatches (fresh CSVs in "
                      "${CSV_DIR})")
endif()
list(LENGTH goldens tables)
message(STATUS "${tables} tables match ${GOLDEN_DIR}")
