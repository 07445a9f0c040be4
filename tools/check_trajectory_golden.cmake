# Pins trajectory_dump's output across commits: runs the tool with ARGS
# and requires its dump to equal the committed EXPECTED file byte for
# byte. The within-build dump diffs (plain vs branch-parallel, via-steps,
# throughput) cannot see a change that moves every variant alike, such as
# a tree-fit change; this check can. Registered by the top-level
# CMakeLists as ctest entries (label "tools").
#
# An intended trajectory change regenerates the expected file with
#   trajectory_dump [ARGS] --out=tests/golden/<file>
# and says why in the change's notes.
#
# Usage:
#   cmake -DTOOL=<trajectory_dump> -DARGS="<flags>" -DEXPECTED=<file>
#         -DOUT=<scratch file path> -P check_trajectory_golden.cmake

if(NOT DEFINED TOOL OR NOT DEFINED EXPECTED OR NOT DEFINED OUT)
  message(FATAL_ERROR
      "check_trajectory_golden: TOOL, EXPECTED and OUT are required")
endif()

separate_arguments(tool_args UNIX_COMMAND "${ARGS}")
file(REMOVE "${OUT}")
execute_process(
  COMMAND "${TOOL}" ${tool_args} "--out=${OUT}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR
      "check_trajectory_golden: '${TOOL} ${ARGS}' exited with '${rc}'\n"
      "${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT}" "${EXPECTED}"
  RESULT_VARIABLE same)
if(NOT same STREQUAL "0")
  file(READ "${OUT}" got)
  file(READ "${EXPECTED}" want)
  message(FATAL_ERROR
      "check_trajectory_golden: '${TOOL} ${ARGS}' no longer matches "
      "${EXPECTED}\n--- expected\n${want}--- got\n${got}")
endif()
file(REMOVE "${OUT}")
