# Checks that a bench binary refuses arguments it does not understand:
# exit status 2 and a stderr line naming the argument and the accepted
# flags, for an unknown flag and for a malformed value of a known one.
#
#   cmake -DBENCH=<bench binary> -P reject_bad_args.cmake

foreach(case "--lanes;2;unknown argument '--lanes'" "--threads;x;bad value for --threads: 'x'")
  list(GET case 0 flag)
  list(GET case 1 value)
  list(GET case 2 expect)
  execute_process(COMMAND "${BENCH}" ${flag} ${value}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag} ${value}: exit status ${rc}, want 2\n${err}")
  endif()
  string(FIND "${err}" "${expect}" at)
  string(FIND "${err}" "accepted flags: --threads N" listed)
  if(at EQUAL -1 OR listed EQUAL -1)
    message(FATAL_ERROR "${flag} ${value}: stderr lacks \"${expect}\" and the flag list:\n${err}")
  endif()
endforeach()
