# Runs vsgpu with ARGS (a '|'-separated list) and fails unless it
# exits with a non-zero status, prints output matching the regex
# MESSAGE, and prints no flight-recorder dump: a rejected command
# never started a run, so there is nothing to dump.
#
#   cmake -DVSGPU=<vsgpu binary> -DMESSAGE=<regex> -DARGS=<a|b|...>
#         -P cli_rejects.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(
    COMMAND "${VSGPU}" ${args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(output "${out}${err}")
list(JOIN args " " cmd)
if(NOT rc MATCHES "^[1-9][0-9]*$")
    message(FATAL_ERROR "vsgpu ${cmd}: expected a non-zero exit "
            "status, got '${rc}'; output:\n${output}")
endif()
if(NOT output MATCHES "${MESSAGE}")
    message(FATAL_ERROR "vsgpu ${cmd}: output does not match "
            "'${MESSAGE}':\n${output}")
endif()
if(output MATCHES "vsgpu flight recorder")
    message(FATAL_ERROR "vsgpu ${cmd}: printed a flight-recorder "
            "dump:\n${output}")
endif()
