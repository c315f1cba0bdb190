# Run one command at --jobs 1 and at --jobs 4, each with --metrics-out,
# and fail unless the two dumps carry the same `counter` lines:
#
#   cmake -DNAME=test -DBIN=path -DARGS="--quiet --requests 40" \
#         -P metrics_jobs_diff.cmake
#
# Both dumps are kept as NAME.jobsN.metrics in the working directory.
cmake_minimum_required(VERSION 3.16)

separate_arguments(argv UNIX_COMMAND "${ARGS}")
foreach(jobs 1 4)
    set(dump "${CMAKE_CURRENT_BINARY_DIR}/${NAME}.jobs${jobs}.metrics")
    execute_process(COMMAND "${BIN}" ${argv} --jobs ${jobs}
                            --metrics-out ${dump}
                    OUTPUT_QUIET ERROR_QUIET
                    RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${BIN} ${ARGS} --jobs ${jobs} exited with ${status}")
    endif()
    file(STRINGS "${dump}" counters${jobs} REGEX "^counter ")
endforeach()

if(NOT counters1)
    message(FATAL_ERROR "no counter lines in ${NAME}.jobs1.metrics")
endif()
if(NOT counters1 STREQUAL counters4)
    execute_process(COMMAND diff "${NAME}.jobs1.metrics"
                            "${NAME}.jobs4.metrics")
    message(FATAL_ERROR "counters of ${BIN} ${ARGS} differ between --jobs 1 and --jobs 4")
endif()
