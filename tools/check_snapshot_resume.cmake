# Asserts lynceus_tune's snapshot/resume contract end to end: tuning a job
# uninterrupted, and tuning it with --snapshot-after=K followed by a
# --resume of that snapshot, must print the same summary lines. Registered
# by the top-level CMakeLists as a ctest entry (label "tools").
#
# Usage:
#   cmake -DTOOL=<lynceus_tune> -DARGS="<space-separated tuning flags>"
#         -DK=<runs before the snapshot> -DSNAPSHOT=<scratch file path>
#         -P check_snapshot_resume.cmake

if(NOT DEFINED TOOL OR NOT DEFINED K OR NOT DEFINED SNAPSHOT)
  message(FATAL_ERROR "check_snapshot_resume: TOOL, K and SNAPSHOT are required")
endif()

separate_arguments(tool_args UNIX_COMMAND "${ARGS}")

function(run_tool out_var)
  execute_process(
    COMMAND "${TOOL}" ${tool_args} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR
        "check_snapshot_resume: '${TOOL} ${ARGS} ${ARGN}' exited with "
        "'${rc}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The summary block print_summary() writes: spend, failures, the
# recommendation and its runtime/cost line.
function(summary_of text out_var)
  string(REGEX MATCHALL
         "(explored|recommended|no configuration|  runtime|  [0-9]+ failed)[^\n]*"
         lines "${text}")
  if(NOT lines)
    message(FATAL_ERROR "check_snapshot_resume: no summary in:\n${text}")
  endif()
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

file(REMOVE "${SNAPSHOT}")
run_tool(whole)
run_tool(first "--snapshot=${SNAPSHOT}" "--snapshot-after=${K}")
if(NOT first MATCHES "snapshot after ${K} runs written")
  message(FATAL_ERROR
      "check_snapshot_resume: no snapshot after ${K} runs:\n${first}")
endif()
run_tool(second "--resume=${SNAPSHOT}")
if(NOT second MATCHES "\\(${K} runs applied so far\\)")
  message(FATAL_ERROR
      "check_snapshot_resume: resume did not start from run ${K}:\n${second}")
endif()
file(REMOVE "${SNAPSHOT}")

summary_of("${whole}" whole_summary)
summary_of("${second}" resumed_summary)
if(NOT whole_summary STREQUAL resumed_summary)
  message(FATAL_ERROR
      "check_snapshot_resume: summaries differ\nuninterrupted:\n"
      "${whole_summary}\nsnapshot + resume:\n${resumed_summary}")
endif()
