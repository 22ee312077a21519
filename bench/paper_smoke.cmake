# ctest script for bench_paper_smoke: runs bench_paper twice at a tiny
# study scale into two fresh results directories. It fails on a non-zero
# exit, a missing CSV, or any byte that differs between the two runs' 19
# CSVs (every column is a modelled number, so none may carry host time).
# It also fails unless every ablation row set up exactly like a Fig. 5
# cell reports that cell's time_ms: all sections run the study's
# datasets. Invoked as
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
    fig7_nvidia_vs_amd fig8_nvidia_vs_intel fig9_potential_speedup
    ablation_protocols ablation_subgroup ablation_binning ablation_cache
    projection_hardware scaling_multigpu distributed)
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

# Fig. 5 rows are "device,model,k,time_ms"; the ablation rows below name
# the cell they repeat in that form.
file(STRINGS ${OUT}/a/fig5_kernel_time.csv fig5_rows)
function(expect_fig5_cells stem expected_count)
  list(LENGTH ARGN n)
  if(NOT n EQUAL expected_count)
    message(FATAL_ERROR "${stem}.csv: ${n} Fig. 5 cells, want "
                        "${expected_count}")
  endif()
  foreach(cell IN LISTS ARGN)
    list(FIND fig5_rows "${cell}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${stem}.csv repeats a Fig. 5 cell as '${cell}', "
                          "but fig5_kernel_time.csv has no such row")
    endif()
  endforeach()
endfunction()

# Reads the rows of ${OUT}/a/<stem>.csv, without its header, into `var`.
function(read_rows stem var)
  file(STRINGS ${OUT}/a/${stem}.csv rows)
  list(REMOVE_AT rows 0)
  set(${var} ${rows} PARENT_SCOPE)
endfunction()

set(cells)
read_rows(ablation_binning rows)  # k,binned_ms,unbinned_ms,gain
foreach(row IN LISTS rows)
  string(REPLACE "," ";" f "${row}")
  list(GET f 0 k)
  list(GET f 1 ms)
  list(APPEND cells "NVIDIA A100,CUDA,${k},${ms}")
endforeach()
expect_fig5_cells(ablation_binning 4 ${cells})

set(cells)
read_rows(ablation_cache rows)  # k,l2_mb,time_ms,hbm_gbytes,intensity
foreach(row IN LISTS rows)
  string(REPLACE "," ";" f "${row}")
  list(GET f 0 k)
  list(GET f 1 l2_mb)
  list(GET f 2 ms)
  if(l2_mb EQUAL 8)
    list(APPEND cells "AMD MI250X (1 GCD),HIP,${k},${ms}")
  endif()
endforeach()
expect_fig5_cells(ablation_cache 4 ${cells})

set(cells)
read_rows(ablation_subgroup rows)  # k,width,time_ms,gintops
foreach(row IN LISTS rows)
  string(REPLACE "," ";" f "${row}")
  list(GET f 0 k)
  list(GET f 1 width)
  list(GET f 2 ms)
  if(width EQUAL 16)
    list(APPEND cells "Intel Max 1550 (1 tile),SYCL,${k},${ms}")
  endif()
endforeach()
expect_fig5_cells(ablation_subgroup 4 ${cells})

set(cells)
read_rows(ablation_protocols rows)  # device,protocol,time_ms,...,native
foreach(row IN LISTS rows)
  string(REPLACE "," ";" f "${row}")
  list(GET f 0 device)
  list(GET f 1 protocol)
  list(GET f 2 ms)
  list(GET f 5 native)
  if(native EQUAL 1)
    list(APPEND cells "${device},${protocol},33,${ms}")
  endif()
endforeach()
expect_fig5_cells(ablation_protocols 3 ${cells})
