# Checks that fuzz_differential refuses arguments it does not understand:
# exit status 2 and one stderr line naming the argument and the usage, for
# an unknown flag and for a malformed or out-of-range value of each numeric
# flag. Each case leads with --runs 1 --jobs 1, so a binary that ignored the
# bad value would finish at once (with status 0, failing the check).
#
#   cmake -DFUZZ=<fuzz_differential binary> -P reject_bad_args.cmake

foreach(case "--runs;x;bad value for --runs: 'x'"
             "--runs;5x;bad value for --runs: '5x'"
             "--seconds;1s;bad value for --seconds: '1s'"
             "--seed;12z;bad value for --seed: '12z'"
             "--jobs;0;bad value for --jobs: '0'"
             "--fault;-2;bad value for --fault: '-2'"
             "--lanes;2;unknown argument '--lanes'")
  list(GET case 0 flag)
  list(GET case 1 value)
  list(GET case 2 expect)
  set(args --runs 1 --jobs 1 ${flag} ${value})
  execute_process(COMMAND "${FUZZ}" ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag} '${value}': exit status ${rc}, want 2\n${out}${err}")
  endif()
  string(FIND "${err}" "${expect}" at)
  string(FIND "${err}" "usage: fuzz_differential [--runs N]" listed)
  if(at EQUAL -1 OR listed EQUAL -1)
    message(FATAL_ERROR "${flag} '${value}': stderr lacks \"${expect}\" and the usage:\n${err}")
  endif()
endforeach()
