# Runs ${BIN} with the single flag ${FLAG} and fails unless it exits with
# code 2 and prints the usage line: the Harness's answer to a malformed
# numeric flag value.
#
#   cmake -DBIN=build/bench/bench_stream_scale -DFLAG=--chunk=-1 \
#         -P bench/expect_usage_exit.cmake
execute_process(COMMAND "${BIN}" "${FLAG}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} ${FLAG}: expected exit code 2, got '${rc}'")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "${BIN} ${FLAG}: no usage line on stderr:\n${err}")
endif()
