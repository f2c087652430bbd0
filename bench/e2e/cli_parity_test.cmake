# CLI parity: for every workload at smoke scale, bench_e2e --export-csv
# writes the CSV, the equivalent lofkit_cli flags and the bench's top 10;
# lofkit_cli run with those flags must print the same top 10, so the bench
# cannot drift into a fork of the CLI's pipeline.
#
#   cmake -DBENCH=... -DCLI=... -DWORKDIR=... -P cli_parity_test.cmake
set(ENV{LOFKIT_BENCH_SMOKE} 1)
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
foreach(workload gauss2d_sweep gauss5d_auto prune_top10 spill_400k)
  set(csv ${WORKDIR}/${workload}.csv)
  execute_process(
    COMMAND ${BENCH} --workload ${workload} --seed 1 --workdir ${WORKDIR}
            --export-csv ${csv}
    RESULT_VARIABLE export_result)
  if(NOT export_result EQUAL 0)
    message(FATAL_ERROR "bench_e2e --export-csv ${workload} failed")
  endif()
  file(READ ${csv}.args cli_args)
  string(STRIP "${cli_args}" cli_args)
  separate_arguments(cli_args UNIX_COMMAND "${cli_args}")
  execute_process(
    COMMAND ${CLI} --input ${csv} ${cli_args}
    OUTPUT_VARIABLE cli_output
    ERROR_VARIABLE cli_error
    RESULT_VARIABLE cli_result)
  if(NOT cli_result EQUAL 0)
    message(FATAL_ERROR "lofkit_cli ${cli_args} failed:\n${cli_error}")
  endif()
  # Drop the CLI's header row; the rest is one row per outlier.
  string(FIND "${cli_output}" "\n" header_end)
  math(EXPR rows_begin "${header_end} + 1")
  string(SUBSTRING "${cli_output}" ${rows_begin} -1 cli_rows)
  file(READ ${csv}.top10 bench_rows)
  if(NOT cli_rows STREQUAL bench_rows)
    message(FATAL_ERROR "${workload}: lofkit_cli ${cli_args} ranks\n"
            "${cli_rows}\nbut bench_e2e ranks\n${bench_rows}")
  endif()
  message(STATUS "${workload}: lofkit_cli and bench_e2e agree")
endforeach()
