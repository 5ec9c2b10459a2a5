# Runs ${PROGRAM} (bench_chaos) over the first 50 fault schedules and fails
# unless its per-run JSON lines equal the schedule 0-49 lines of every
# protocol in the committed ${REFERENCE} (results/chaos/chaos_audit.txt).
# Invoked by ctest through
#   cmake -DPROGRAM=... -DREFERENCE=... -P chaos_prefix.cmake
execute_process(COMMAND "${PROGRAM}" --schedules=50 --jobs=2
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "bench_chaos exited ${code}\n${err}")
endif()
string(REGEX MATCHALL "{\"schedule\":[^\n]*" got "${out}")
file(STRINGS "${REFERENCE}" want
     REGEX "^{\"schedule\":([0-9]|[1-4][0-9]),")
list(LENGTH got n_got)
list(LENGTH want n_want)
if(NOT n_want EQUAL 200)
  message(FATAL_ERROR "${REFERENCE}: ${n_want} schedule 0-49 lines, want 200")
endif()
if(NOT n_got EQUAL n_want)
  message(FATAL_ERROR "bench_chaos printed ${n_got} run lines, want ${n_want}")
endif()
foreach(i RANGE 199)
  list(GET got ${i} g)
  list(GET want ${i} w)
  if(NOT g STREQUAL w)
    message(FATAL_ERROR "run line ${i} differs:\n  got:  ${g}\n  want: ${w}")
  endif()
endforeach()
