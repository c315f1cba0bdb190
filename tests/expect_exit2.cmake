# Run one command and fail unless it exits with status 2 (a usage
# error) and its stderr matches a regular expression:
#
#   cmake -DBIN=path -DARGS="--seed abc" -DPATTERN="bad --seed" \
#         -P expect_exit2.cmake
cmake_minimum_required(VERSION 3.16)

separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${argv}
                OUTPUT_QUIET
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL 2)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${status}, not 2:\n${err}")
endif()
if(NOT err MATCHES "${PATTERN}")
    message(FATAL_ERROR "stderr of ${BIN} ${ARGS} lacks \"${PATTERN}\":\n${err}")
endif()
