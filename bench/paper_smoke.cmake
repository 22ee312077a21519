# ctest script for bench_paper_smoke: runs bench_paper twice at a tiny
# study scale into two fresh results directories. It fails on a non-zero
# exit, a missing table/figure CSV, or any byte that differs between the
# two runs' CSVs (every column is a modelled number, so none may carry
# host time). Invoked as
#   cmake -DBENCH=<bench_paper> -DOUT=<results dir> -P paper_smoke.cmake
file(REMOVE_RECURSE ${OUT})
foreach(run a b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env LASSM_STUDY_SCALE=0.02
            LASSM_RESULTS_DIR=${OUT}/${run} ${BENCH}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_paper run ${run} exited with ${rc}")
  endif()
endforeach()
foreach(stem
    table1_platforms table2_datasets table3_architecture
    table4_arch_efficiency table5_hash_intops table6_theoretical_ii
    table7_alg_efficiency fig5_kernel_time fig6_roofline
    fig7_nvidia_vs_amd fig8_nvidia_vs_intel fig9_potential_speedup)
  foreach(run a b)
    if(NOT EXISTS ${OUT}/${run}/${stem}.csv)
      message(FATAL_ERROR "bench_paper run ${run} did not write ${stem}.csv")
    endif()
  endforeach()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/a/${stem}.csv
            ${OUT}/b/${stem}.csv
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${stem}.csv differs between two bench_paper runs")
  endif()
endforeach()
