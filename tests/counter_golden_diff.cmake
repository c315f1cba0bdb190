# Run one command with --metrics-out and fail unless the `counter`
# lines of its metrics dump equal a committed golden file byte for
# byte:
#
#   cmake -DNAME=test -DBIN=path -DARGS="--quiet --requests 40" \
#         -DGOLDEN=file -P counter_golden_diff.cmake
#
# The dump is kept as NAME.metrics in the working directory. On a
# mismatch its counter lines are kept as NAME.actual and diffed
# against the golden.
cmake_minimum_required(VERSION 3.16)

separate_arguments(argv UNIX_COMMAND "${ARGS}")
set(dump "${CMAKE_CURRENT_BINARY_DIR}/${NAME}.metrics")
execute_process(COMMAND "${BIN}" ${argv} --metrics-out ${dump}
                OUTPUT_QUIET
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${status}")
endif()

file(STRINGS "${dump}" lines REGEX "^counter ")
if(NOT lines)
    message(FATAL_ERROR "no counter lines in ${dump}")
endif()
list(JOIN lines "\n" actual)
string(APPEND actual "\n")

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    set(kept "${CMAKE_CURRENT_BINARY_DIR}/${NAME}.actual")
    file(WRITE "${kept}" "${actual}")
    execute_process(COMMAND diff -u "${GOLDEN}" "${kept}")
    message(FATAL_ERROR "counters of ${BIN} ${ARGS} differ from ${GOLDEN}")
endif()
