# Runs ${PROGRAM} ${ARG} and fails unless it exits with ${EXPECT_CODE} and
# its stderr contains ${EXPECT_STDERR}. Invoked by ctest through
#   cmake -DPROGRAM=... -DARG=... -DEXPECT_CODE=... -DEXPECT_STDERR=... -P
execute_process(COMMAND "${PROGRAM}" "${ARG}"
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "${ARG}: exit ${code}, want ${EXPECT_CODE}\n${err}")
endif()
string(FIND "${err}" "${EXPECT_STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${ARG}: stderr lacks '${EXPECT_STDERR}':\n${err}")
endif()
