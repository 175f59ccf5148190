# CTest script for the paper tables and figures: `repro <name> --quick
# --no-manifest` must print GOLDEN_DIR/<name>.txt byte for byte, for every
# committed golden. Each pass (native kernels, then DECAM_SIMD=scalar) starts
# from an empty score cache, so its first command generates the experiment
# and the rest read it back — the printed numbers cover both the pipeline and
# the cache round trip.
file(GLOB goldens ${GOLDEN_DIR}/*.txt)
list(LENGTH goldens count)
if(count EQUAL 0)
  message(FATAL_ERROR "no golden outputs in ${GOLDEN_DIR}")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
foreach(mode native scalar)
  set(simd --unset=DECAM_SIMD)
  if(mode STREQUAL "scalar")
    set(simd DECAM_SIMD=scalar)
  endif()
  file(MAKE_DIRECTORY ${WORK_DIR}/${mode}/cache)
  foreach(golden ${goldens})
    get_filename_component(name ${golden} NAME_WE)
    set(out ${WORK_DIR}/${mode}/${name}.txt)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E env ${simd}
              DECAM_CACHE_DIR=${WORK_DIR}/${mode}/cache
              ${REPRO} ${name} --quick --no-manifest
      OUTPUT_FILE ${out}
      ERROR_VARIABLE err
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "repro ${name} (${mode}) failed: ${rc}\n${err}")
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${golden} ${out}
                    RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
      file(READ ${out} got)
      message(FATAL_ERROR "repro ${name} (${mode}) differs from ${golden}; "
                          "it printed:\n${got}")
    endif()
  endforeach()
endforeach()
message(STATUS "repro golden OK (${count} outputs, native and scalar)")
