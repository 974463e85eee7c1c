# Byte gate for the golden summaries: record every scenario afresh
# and require each file to match the committed tests/golden copy byte
# for byte.  test_golden_benches replays the same scenarios within
# per-metric tolerances; this gate catches the round-off drift those
# tolerances let through.
#
#   cmake -DRECORD_GOLDEN=<record_golden> -DGOLDEN_DIR=<tests/golden>
#         -DOUT_DIR=<scratch dir> -P check_golden_bytes.cmake

foreach(var RECORD_GOLDEN GOLDEN_DIR OUT_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_golden_bytes: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(COMMAND "${RECORD_GOLDEN}" --out "${OUT_DIR}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "record_golden failed (${rc})")
endif()

file(GLOB committed RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/*.json")
file(GLOB recorded RELATIVE "${OUT_DIR}" "${OUT_DIR}/*.json")
list(SORT committed)
list(SORT recorded)
if(NOT committed STREQUAL recorded)
    message(FATAL_ERROR "golden file sets differ:\n"
                        "  committed: ${committed}\n"
                        "  recorded:  ${recorded}")
endif()

set(mismatched "")
foreach(name IN LISTS committed)
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${GOLDEN_DIR}/${name}" "${OUT_DIR}/${name}"
                    RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        list(APPEND mismatched "${name}")
    endif()
endforeach()
list(LENGTH committed total)
if(mismatched)
    message(FATAL_ERROR "goldens not byte-identical to a fresh "
                        "record_golden run: ${mismatched}")
endif()
message(STATUS "all ${total} goldens byte-identical")
