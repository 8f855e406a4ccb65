# Pins the rendered output of `sep2p_cli report` and `sep2p_cli check`
# byte for byte:
#
#   cmake -DCLI=<sep2p_cli> -DGOLDEN_DIR=<dir> -DWORK=<dir>
#         -P report_golden.cmake
#
# Records two traces (a fault-injected demo and one traced csar-grind
# attack), puts both JSONL logs in WORK/traces, then compares the
# report's markdown, CSV and folded stacks and the checker's stdout
# with the files of the same name under GOLDEN_DIR. WORK is emptied
# first and every command runs inside it with relative paths, because
# the markdown names its source files. On a mismatch the actual output
# is left in WORK and a unified diff is printed; copy it over the
# golden file only for an intended output change.
cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK}/traces)

# Runs sep2p_cli in WORK; its stdout lands in `out`.
function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORK}
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sep2p_cli ${ARGN} exited with ${rc}\n${stderr}")
  endif()
  set(out "${stdout}" PARENT_SCOPE)
endfunction()

run_cli(demo --n 800 --drop 0.05 --crash 0.001 --trace demo.json)
run_cli(attack --scenario csar-grind --n 2000 --c 0.2 --trace grind.json)
file(RENAME ${WORK}/demo.json.jsonl ${WORK}/traces/demo.json.jsonl)
file(RENAME ${WORK}/grind.json.jsonl ${WORK}/traces/grind.json.jsonl)

run_cli(report traces --csv report.csv --folded report.folded)
file(WRITE ${WORK}/report.md "${out}")
run_cli(check traces)
file(WRITE ${WORK}/check.txt "${out}")

set(differs "")
foreach(name report.md report.csv report.folded check.txt)
  file(READ ${GOLDEN_DIR}/${name} expected)
  file(READ ${WORK}/${name} actual)
  if(NOT "${actual}" STREQUAL "${expected}")
    execute_process(COMMAND diff -u ${GOLDEN_DIR}/${name} ${WORK}/${name})
    list(APPEND differs ${name})
  endif()
endforeach()
if(differs)
  message(FATAL_ERROR "output differs from ${GOLDEN_DIR}: ${differs}")
endif()
