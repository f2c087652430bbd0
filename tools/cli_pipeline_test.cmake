# End-to-end smoke: generate DS1, score it, check the two planted outliers
# (points 500 and 501) lead the ranking.
execute_process(
  COMMAND ${DATAGEN} --scenario ds1 --output ${WORKDIR}/ds1_smoke.csv
  RESULT_VARIABLE datagen_result)
if(NOT datagen_result EQUAL 0)
  message(FATAL_ERROR "datagen failed: ${datagen_result}")
endif()
execute_process(
  COMMAND ${CLI} --input ${WORKDIR}/ds1_smoke.csv --has-header
          --minpts-lb 10 --minpts-ub 30 --top 2
  OUTPUT_VARIABLE cli_output
  RESULT_VARIABLE cli_result)
if(NOT cli_result EQUAL 0)
  message(FATAL_ERROR "cli failed: ${cli_result}")
endif()
string(FIND "${cli_output}" "500" found_o2)
string(FIND "${cli_output}" "501" found_o1)
if(found_o2 EQUAL -1 OR found_o1 EQUAL -1)
  message(FATAL_ERROR "planted outliers not on top:\n${cli_output}")
endif()

# Persistence smoke: save M, reload it (copying, mmap'ed, and under a
# memory budget, which maps it too), and demand a bit-identical --top
# ranking from every route.
execute_process(
  COMMAND ${CLI} --input ${WORKDIR}/ds1_smoke.csv --has-header
          --minpts-lb 10 --minpts-ub 30 --top 5
          --save-materialization ${WORKDIR}/ds1_smoke.lofc
  OUTPUT_VARIABLE save_output
  RESULT_VARIABLE save_result)
if(NOT save_result EQUAL 0)
  message(FATAL_ERROR "cli --save-materialization failed: ${save_result}")
endif()
foreach(map_flag "" "--map-materialization" "--memory-budget-mb=1")
  execute_process(
    COMMAND ${CLI} --input ${WORKDIR}/ds1_smoke.csv --has-header
            --minpts-lb 10 --minpts-ub 30 --top 5
            --load-materialization ${WORKDIR}/ds1_smoke.lofc ${map_flag}
    OUTPUT_VARIABLE load_output
    ERROR_VARIABLE load_error
    RESULT_VARIABLE load_result)
  if(NOT load_result EQUAL 0)
    message(FATAL_ERROR "cli reload (${map_flag}) failed: ${load_result}")
  endif()
  if(NOT save_output STREQUAL load_output)
    message(FATAL_ERROR "reloaded ranking (${map_flag}) differs:\n"
            "saved run:\n${save_output}\nreloaded run:\n${load_output}")
  endif()
  if(NOT map_flag STREQUAL "")
    string(FIND "${load_error}" "mapped materialization" found_mapped)
    if(found_mapped EQUAL -1)
      message(FATAL_ERROR "reload (${map_flag}) did not map the file:\n"
              "${load_error}")
    endif()
  endif()
endforeach()

# Corruption smoke: truncate the saved file (skipped where truncate(1) is
# unavailable); the load must fail with a clean typed error, never a crash
# or a wrong ranking.
file(SIZE ${WORKDIR}/ds1_smoke.lofc container_size)
math(EXPR torn_size "${container_size} / 2")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E copy ${WORKDIR}/ds1_smoke.lofc
          ${WORKDIR}/ds1_torn.lofc)
execute_process(
  COMMAND truncate -s ${torn_size} ${WORKDIR}/ds1_torn.lofc
  RESULT_VARIABLE truncate_result)
if(truncate_result EQUAL 0)
  execute_process(
    COMMAND ${CLI} --input ${WORKDIR}/ds1_smoke.csv --has-header
            --minpts-lb 10 --minpts-ub 30 --top 5
            --load-materialization ${WORKDIR}/ds1_torn.lofc
    ERROR_VARIABLE torn_error
    RESULT_VARIABLE torn_result)
  if(torn_result EQUAL 0)
    message(FATAL_ERROR "loading a truncated materialization succeeded")
  endif()
  string(FIND "${torn_error}" "corrupt container" found_corrupt)
  if(found_corrupt EQUAL -1)
    message(FATAL_ERROR "truncated load did not report corruption:\n"
            "${torn_error}")
  endif()
endif()

# Spill smoke: on a dataset whose projected M overflows a 1 MiB budget,
# --spill-dir must keep the exact in-RAM ranking (mmap-served M) instead
# of degrading to re-query, for every scorer. 5000 points at MinPtsUB 30
# project to ~2.4 MB.
execute_process(
  COMMAND ${DATAGEN} --scenario gaussians --points 5000 --dim 3
          --output ${WORKDIR}/spill_smoke.csv
  RESULT_VARIABLE spill_datagen_result)
if(NOT spill_datagen_result EQUAL 0)
  message(FATAL_ERROR "datagen failed: ${spill_datagen_result}")
endif()
foreach(scorer lof ldof kde knn_distance db_outlier)
  execute_process(
    COMMAND ${CLI} --input ${WORKDIR}/spill_smoke.csv --has-header
            --minpts-lb 10 --minpts-ub 30 --top 5 --scorer ${scorer}
    OUTPUT_VARIABLE spill_base_output
    RESULT_VARIABLE spill_base_result)
  if(NOT spill_base_result EQUAL 0)
    message(FATAL_ERROR "cli --scorer ${scorer} base run failed: "
            "${spill_base_result}")
  endif()
  execute_process(
    COMMAND ${CLI} --input ${WORKDIR}/spill_smoke.csv --has-header
            --minpts-lb 10 --minpts-ub 30 --top 5 --scorer ${scorer}
            --memory-budget-mb 1 --spill-dir ${WORKDIR}
    OUTPUT_VARIABLE spill_output
    ERROR_VARIABLE spill_stderr
    RESULT_VARIABLE spill_result)
  if(NOT spill_result EQUAL 0)
    message(FATAL_ERROR "cli --scorer ${scorer} --spill-dir run failed: "
            "${spill_result}\n${spill_stderr}")
  endif()
  string(FIND "${spill_stderr}" "spilling to disk" found_spill)
  if(found_spill EQUAL -1)
    message(FATAL_ERROR "budgeted ${scorer} run did not take the spill "
            "rung:\n${spill_stderr}")
  endif()
  if(NOT spill_base_output STREQUAL spill_output)
    message(FATAL_ERROR "${scorer} spill-rung ranking differs:\nin-RAM:\n"
            "${spill_base_output}\nspilled:\n${spill_output}")
  endif()
endforeach()

# Phase attribution: a run that writes its scores reports the load and the
# write as gauges of their own in --stats-json.
execute_process(
  COMMAND ${CLI} --input ${WORKDIR}/ds1_smoke.csv --has-header
          --minpts-lb 10 --minpts-ub 30 --top 2
          --output ${WORKDIR}/ds1_scores.csv
          --stats-json ${WORKDIR}/ds1_stats.json
  OUTPUT_QUIET
  RESULT_VARIABLE stats_result)
if(NOT stats_result EQUAL 0)
  message(FATAL_ERROR "cli --output --stats-json failed: ${stats_result}")
endif()
file(READ ${WORKDIR}/ds1_stats.json stats_json)
foreach(gauge phase.load_seconds phase.write_seconds)
  string(FIND "${stats_json}" "\"${gauge}\"" found_gauge)
  if(found_gauge EQUAL -1)
    message(FATAL_ERROR "--stats-json lacks ${gauge}:\n${stats_json}")
  endif()
endforeach()

file(REMOVE ${WORKDIR}/ds1_smoke.csv ${WORKDIR}/ds1_smoke.lofc
     ${WORKDIR}/ds1_torn.lofc ${WORKDIR}/spill_smoke.csv
     ${WORKDIR}/ds1_scores.csv ${WORKDIR}/ds1_stats.json)
