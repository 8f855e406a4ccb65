# Reruns one paper harness (or example) and compares its stdout with the
# checked-in golden text, byte for byte:
#
#   cmake -DHARNESS=<binary> -DGOLDEN=<file> -P golden_diff.cmake
#
# On a mismatch the actual output is left next to the working directory
# as <name>.actual and a unified diff is printed. To re-pin after an
# intended change, copy the .actual file over the golden one.
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${HARNESS} --quick --threads 2
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${HARNESS} exited with ${rc}")
endif()

file(READ ${GOLDEN} expected)
if(NOT "${actual}" STREQUAL "${expected}")
  get_filename_component(name ${GOLDEN} NAME)
  file(WRITE ${name}.actual "${actual}")
  execute_process(COMMAND diff -u ${GOLDEN} ${name}.actual)
  message(FATAL_ERROR "output differs from ${GOLDEN}")
endif()
