# Runs one command line and fails unless it exits with EXPECT_CODE and its
# stderr matches EXPECT_STDERR. The exit code is compared exactly: an
# uncaught exception aborts (134 from a shell, "Subprocess aborted" here),
# which must not pass for a clean "exit 1".
#
#   cmake -DWORK_DIR=<dir> [-DSETUP=<cmd>] -DCOMMAND=<cmd>
#         -DEXPECT_CODE=<n> -DEXPECT_STDERR=<regex> -P expect_exit.cmake
#
# SETUP and COMMAND separate their arguments with '|' and run in a fresh
# WORK_DIR; SETUP (e.g. writing an input file) must exit 0.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

if(SETUP)
  string(REPLACE "|" ";" setup "${SETUP}")
  execute_process(COMMAND ${setup} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT "${code}" STREQUAL "0")
    message(FATAL_ERROR "setup exited '${code}': ${err}")
  endif()
endif()

string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command} WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT "${code}" STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "exited '${code}', want ${EXPECT_CODE}; stderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}': ${err}")
endif()
