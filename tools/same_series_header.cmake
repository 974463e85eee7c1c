# Writes a time-series dump with sampling off from each frontend,
# `vsgpu scenario` and `vsgpu run`, and fails unless the two files are
# byte-identical: with no runs recorded, a dump is its header alone.
#
#   cmake -DVSGPU=<vsgpu binary> -DOUT_DIR=<dir> -P same_series_header.cmake
foreach(side scenario run)
    set(dump_${side} "${OUT_DIR}/series_header_${side}.json")
    file(REMOVE "${dump_${side}}")
endforeach()
execute_process(
    COMMAND "${VSGPU}" scenario fig03_impedance --scale 0.05
            --timeseries-out "${dump_scenario}"
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "vsgpu scenario exited with ${rc}")
endif()
execute_process(
    COMMAND "${VSGPU}" run --pds vrm --instrs 20 --cycles 100
            --timeseries-out "${dump_run}"
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "vsgpu run exited with ${rc}")
endif()
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${dump_scenario}" "${dump_run}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    file(READ "${dump_scenario}" a)
    file(READ "${dump_run}" b)
    message(FATAL_ERROR "time-series headers differ:\n"
            "scenario:\n${a}\nrun:\n${b}")
endif()
