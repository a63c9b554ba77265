# CTest driver for the benches' environment edge (bench/bench_util.hh).
#
#   cmake -DBENCH=<bench binary> -DVAR=<name> -DVALUE=<value>
#         -P bench_env.cmake
#       passes when BENCH, started with VAR=VALUE, exits 1 and names
#       VAR on stderr. Quick mode keeps a bench that wrongly runs short.

set(ENV{KRISP_BENCH_QUICK} 1)
set(ENV{${VAR}} "${VALUE}")
execute_process(COMMAND "${BENCH}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
            "${VAR}=${VALUE} ${BENCH} exited ${rc}, want 1\n${err}")
endif()
string(FIND "${err}" "${VAR}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${BENCH} did not name ${VAR}:\n${err}")
endif()
