# Pins what the observed sweep harnesses write under --trace and
# --metrics, byte for byte:
#
#   cmake -DBENCH_DIR=<dir of the bench binaries> -DGOLDEN_DIR=<dir>
#         -DWORK=<dir> -P observed_golden.cmake
#
# Runs each harness below with `--quick --threads 2 --trace T
# --trace-trials 2 --metrics M` inside WORK (emptied first), then
# compares every metrics snapshot M.json as full text with
# GOLDEN_DIR/<harness>.metrics.json, and the SHA-256 of every other file
# the run wrote (the Chrome trace T, the JSONL traces T.jsonl and
# T.trial1.jsonl, the Prometheus text M) with the list in
# GOLDEN_DIR/observed.sha256. On a mismatch the actual files stay in
# WORK and a unified diff is printed; copy them over the golden ones
# only for an intended output change.
cmake_minimum_required(VERSION 3.16)

set(harnesses fig3_effectiveness fig7_cache_size ablation_actors
              ablation_exhaustive ablation_failures ablation_adversary)

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

set(differs "")
set(hashes "")
foreach(harness ${harnesses})
  execute_process(COMMAND ${BENCH_DIR}/${harness} --quick --threads 2
                          --trace ${harness}.trace --trace-trials 2
                          --metrics ${harness}.metrics
                  WORKING_DIRECTORY ${WORK}
                  OUTPUT_QUIET
                  ERROR_VARIABLE stderr
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${harness} exited with ${rc}\n${stderr}")
  endif()

  set(name ${harness}.metrics.json)
  file(READ ${GOLDEN_DIR}/${name} expected)
  file(READ ${WORK}/${name} actual)
  if(NOT "${actual}" STREQUAL "${expected}")
    execute_process(COMMAND diff -u ${GOLDEN_DIR}/${name} ${WORK}/${name})
    list(APPEND differs ${name})
  endif()

  foreach(name ${harness}.trace ${harness}.trace.jsonl
               ${harness}.trace.trial1.jsonl ${harness}.metrics)
    file(SHA256 ${WORK}/${name} digest)
    string(APPEND hashes "${digest}  ${name}\n")
  endforeach()
endforeach()

file(WRITE ${WORK}/observed.sha256 "${hashes}")
file(READ ${GOLDEN_DIR}/observed.sha256 expected)
if(NOT "${hashes}" STREQUAL "${expected}")
  execute_process(COMMAND diff -u ${GOLDEN_DIR}/observed.sha256
                          ${WORK}/observed.sha256)
  list(APPEND differs observed.sha256)
endif()

if(differs)
  message(FATAL_ERROR "output differs from ${GOLDEN_DIR}: ${differs}")
endif()
