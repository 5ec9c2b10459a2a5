# Runs ${PROGRAM} with the ;-separated ${ARGS} and fails unless it exits 0
# and its stdout equals the file ${REFERENCE} byte for byte. Invoked by ctest
# through
#   cmake -DPROGRAM=... -DARGS=... -DREFERENCE=... -P expect_stdout.cmake
execute_process(COMMAND "${PROGRAM}" ${ARGS}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "${PROGRAM} exited ${code}\n${err}")
endif()
file(READ "${REFERENCE}" want)
if(out STREQUAL want)
  return()
endif()
string(REPLACE "\n" ";" got_lines "${out}")
string(REPLACE "\n" ";" want_lines "${want}")
list(LENGTH got_lines n_got)
list(LENGTH want_lines n_want)
set(i 0)
while(i LESS n_got AND i LESS n_want)
  list(GET got_lines ${i} g)
  list(GET want_lines ${i} w)
  if(NOT g STREQUAL w)
    math(EXPR line "${i} + 1")
    message(FATAL_ERROR "${REFERENCE} line ${line} differs:\n"
                        "  got:  ${g}\n  want: ${w}")
  endif()
  math(EXPR i "${i} + 1")
endwhile()
message(FATAL_ERROR "${REFERENCE}: output has ${n_got} lines, want ${n_want}")
