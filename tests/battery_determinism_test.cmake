# CTest driver for the battery's thread-count determinism contract
# (DESIGN.md §8): the same quick `repro table8` experiment run on one
# worker thread and on four must produce byte-identical cache TSVs — the
# per-image score rows, serialised at %.17g, straight from disk. A single
# ULP of drift anywhere in the fused metric pass or the parallel fan-out
# shows up as a file diff here.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR}/threads1 ${WORK_DIR}/threads4)

foreach(threads 1 4)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            DECAM_CACHE_DIR=${WORK_DIR}/threads${threads}
            ${REPRO} table8 --quick --threads ${threads} --no-manifest
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "repro table8 --threads ${threads} failed: ${rc}")
  endif()
endforeach()

file(GLOB tsv1 ${WORK_DIR}/threads1/experiment_*.tsv)
file(GLOB tsv4 ${WORK_DIR}/threads4/experiment_*.tsv)
list(LENGTH tsv1 count1)
list(LENGTH tsv4 count4)
if(NOT count1 EQUAL 1 OR NOT count4 EQUAL 1)
  message(FATAL_ERROR
          "expected one cache TSV per run, got ${count1} and ${count4}")
endif()

# Same config -> same cache filename; different names mean the cache key
# itself became thread-dependent, which is its own determinism failure.
get_filename_component(name1 ${tsv1} NAME)
get_filename_component(name4 ${tsv4} NAME)
if(NOT name1 STREQUAL name4)
  message(FATAL_ERROR "cache keys differ across thread counts: "
                      "${name1} vs ${name4}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${tsv1} ${tsv4}
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "per-image scores differ between --threads 1 and "
                      "--threads 4: ${tsv1} vs ${tsv4}")
endif()
message(STATUS "battery determinism OK (${name1} byte-identical at 1 and 4 "
               "threads)")

# Defense-wrapped scan determinism (DESIGN.md §13): the same images scored
# through `decamctl scan --defense` on 1 worker thread and on 4 must report
# bit-identical scores (%.17g in the JSON). Only the measured latencies may
# differ, so those fields are scrubbed before the comparison.
get_filename_component(EXAMPLES_DIR ${DECAMCTL} DIRECTORY)
execute_process(COMMAND ${EXAMPLES_DIR}/quickstart 3
                WORKING_DIRECTORY ${WORK_DIR}
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "quickstart failed: ${rc}")
endif()

# A third run takes the same scan path with --short-circuit: it may only
# drop scores (null), never change a verdict or a score it reports.
foreach(run 1 4 sc)
  set(threads ${run})
  set(mode_flag)
  if(run STREQUAL "sc")
    set(threads 4)
    set(mode_flag --short-circuit)
  endif()
  execute_process(
    COMMAND ${DECAMCTL} scan
            ${WORK_DIR}/quickstart_out/scene.ppm
            ${WORK_DIR}/quickstart_out/attack.ppm
            ${WORK_DIR}/quickstart_out/attack_roundtrip.ppm
            --width 112 --height 112 --defense squeeze4+jpeg75
            --json --threads ${threads} ${mode_flag}
    OUTPUT_VARIABLE scan_out ERROR_QUIET RESULT_VARIABLE rc)
  # 0 = all benign, 3 = attack flagged; both are successful scans.
  if(NOT rc EQUAL 0 AND NOT rc EQUAL 3)
    message(FATAL_ERROR
            "defended scan --threads ${threads} ${mode_flag} failed: ${rc}")
  endif()
  set(raw_${run} "${scan_out}")
  string(REGEX REPLACE "\"(total_)?latency_ms\": [0-9.eE+-]+" "latency"
         scan_scrubbed "${scan_out}")
  set(scan_${run} "${scan_scrubbed}")
endforeach()

if(NOT scan_1 STREQUAL scan_4)
  message(FATAL_ERROR "defended scan scores differ between --threads 1 "
                      "and --threads 4:\n${scan_1}\n--- vs ---\n${scan_4}")
endif()
if(NOT scan_1 MATCHES "squeeze4\\+jpeg75>scaling/mse")
  message(FATAL_ERROR "defended scan did not report defended detector "
                      "names:\n${scan_1}")
endif()
message(STATUS "defended scan determinism OK (squeeze4+jpeg75, "
               "bit-identical JSON scores at 1 and 4 threads)")

# Short-circuit vs full vote, per image: same verdict, and every score the
# short circuit reports (non-null) equals the full-mode score. Both sides
# go through the same JSON number conversion, so equal strings mean equal
# doubles.
string(JSON images LENGTH "${raw_1}")
string(JSON sc_images LENGTH "${raw_sc}")
if(NOT images EQUAL sc_images)
  message(FATAL_ERROR "short-circuit scan reported ${sc_images} images, "
                      "the full vote ${images}")
endif()
math(EXPR last_image "${images} - 1")
set(skipped 0)
foreach(i RANGE ${last_image})
  string(JSON full_verdict GET "${raw_1}" ${i} verdict)
  string(JSON sc_verdict GET "${raw_sc}" ${i} verdict)
  if(NOT full_verdict STREQUAL sc_verdict)
    message(FATAL_ERROR "image ${i}: short-circuit verdict ${sc_verdict}, "
                        "full vote ${full_verdict}:\n${raw_sc}")
  endif()
  string(JSON members LENGTH "${raw_1}" ${i} detectors)
  math(EXPR last_member "${members} - 1")
  foreach(j RANGE ${last_member})
    string(JSON sc_type TYPE "${raw_sc}" ${i} detectors ${j} score)
    if(sc_type STREQUAL "NULL")
      math(EXPR skipped "${skipped} + 1")
      continue()
    endif()
    string(JSON full_score GET "${raw_1}" ${i} detectors ${j} score)
    string(JSON sc_score GET "${raw_sc}" ${i} detectors ${j} score)
    if(NOT full_score STREQUAL sc_score)
      message(FATAL_ERROR "image ${i} member ${j}: short-circuit score "
                          "${sc_score}, full vote ${full_score}")
    endif()
  endforeach()
endforeach()
message(STATUS "defended short-circuit scan OK (verdicts and reported "
               "scores equal the full vote; ${skipped} members skipped)")
