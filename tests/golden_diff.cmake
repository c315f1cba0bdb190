# Run one command and fail unless it exits with the expected status
# (EXIT, default 0) and its stdout equals a committed golden file byte
# for byte:
#
#   cmake -DNAME=test -DBIN=path -DARGS="--quiet --requests 40" \
#         -DGOLDEN=file [-DEXIT=3] -P golden_diff.cmake
#
# On a mismatch the actual stdout is kept as NAME.actual in the working
# directory and diffed against the golden.
cmake_minimum_required(VERSION 3.16)

separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${argv}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT DEFINED EXIT)
    set(EXIT 0)
endif()
if(NOT status EQUAL EXIT)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${status}, not ${EXIT}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    set(kept "${CMAKE_CURRENT_BINARY_DIR}/${NAME}.actual")
    file(WRITE "${kept}" "${actual}")
    execute_process(COMMAND diff -u "${GOLDEN}" "${kept}")
    message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from ${GOLDEN}")
endif()
