# CTest driver for `krisp_placement` (see tests/CMakeLists.txt).
#
#   cmake -DTOOL=<krisp_placement> -DPLAN=<plan.json> -DFIELD=<field>
#         -P placement_replay.cmake
#       passes when replaying PLAN exits 1 naming "plan field FIELD:".
#   cmake -DTOOL=<krisp_placement> -DPLAN=<path to write> -DFLAG=<flag>
#         -DVALUE=<value> -P placement_replay.cmake
#       passes when `search FLAG VALUE` exits 1 naming FLAG, before it
#       searches or writes PLAN.
#   cmake -DTOOL=<krisp_placement> -DPLAN=<path to write>
#         -P placement_replay.cmake
#       runs a small search that writes PLAN, then passes when
#       replaying it exits 0 and reprints the recorded fingerprint.

if(DEFINED FLAG)
    execute_process(COMMAND "${TOOL}" search ${FLAG} "${VALUE}"
                            --plan "${PLAN}"
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR
                "search ${FLAG} ${VALUE} exited ${rc}, want 1\n${out}${err}")
    endif()
    string(FIND "${err}" "invalid ${FLAG} value" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "search did not name ${FLAG}:\n${err}")
    endif()
    return()
endif()

if(DEFINED FIELD)
    execute_process(COMMAND "${TOOL}" replay --plan "${PLAN}"
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "replay exited ${rc}, want 1\n${out}${err}")
    endif()
    string(FIND "${err}" "plan field ${FIELD}:" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "replay did not name field ${FIELD}:\n${err}")
    endif()
    return()
endif()

# A rate with more digits than a default-precision print keeps.
execute_process(COMMAND "${TOOL}" search --shards 2
                        --models squeezenet,shufflenet --chains 1
                        --steps 2 --jobs 1 --rate 123.4567891
                        --plan "${PLAN}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "search exited ${rc}\n${out}${err}")
endif()
file(READ "${PLAN}" plan)
if(NOT plan MATCHES "\"fingerprint\": \"(0x[0-9a-f]+)\"")
    message(FATAL_ERROR "plan records no fingerprint:\n${plan}")
endif()
set(recorded "${CMAKE_MATCH_1}")
execute_process(COMMAND "${TOOL}" replay --plan "${PLAN}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "replay exited ${rc}\n${out}${err}")
endif()
string(FIND "${out}" "fingerprint: ${recorded}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "replay did not reprint ${recorded}:\n${out}")
endif()
