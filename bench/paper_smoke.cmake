# ctest script for bench_paper_smoke: runs bench_paper at a tiny study
# scale into a fresh results directory and fails on a non-zero exit or a
# missing table/figure CSV. Invoked as
#   cmake -DBENCH=<bench_paper> -DOUT=<results dir> -P paper_smoke.cmake
file(REMOVE_RECURSE ${OUT})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env LASSM_STUDY_SCALE=0.02
          LASSM_RESULTS_DIR=${OUT} ${BENCH}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_paper exited with ${rc}")
endif()
foreach(stem
    table1_platforms table2_datasets table3_architecture
    table4_arch_efficiency table5_hash_intops table6_theoretical_ii
    table7_alg_efficiency fig5_kernel_time fig6_roofline
    fig7_nvidia_vs_amd fig8_nvidia_vs_intel fig9_potential_speedup)
  if(NOT EXISTS ${OUT}/${stem}.csv)
    message(FATAL_ERROR "bench_paper did not write ${stem}.csv")
  endif()
endforeach()
