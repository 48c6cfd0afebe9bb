# Two modes, selected by which -D variables the add_test() call passes:
#
#  - LINT_FIXTURE_DIR set: forcelint integration. Every shipped example
#    must translate clean under --lint --Werror for every process model;
#    every seeded fixture r<N>_*.force must fail with its rule id
#    (force-lint-R<N>) on stderr.
#
#  - otherwise: the paper's three-step pipeline for every machine model -
#    forcepp translates the Force source, then the host C++ compiler
#    syntax-checks the generated translation unit (full compile+link is
#    exercised by the saxpy_force example target).
if(LINT_FIXTURE_DIR)
  file(GLOB clean_sources "${EXAMPLES_DIR}/*.force")
  list(APPEND clean_sources
    "${EXAMPLES_DIR}/multifile/main.force"
    "${LINT_FIXTURE_DIR}/clean.force")
  list(SORT clean_sources)
  # The examples are portable: clean under every process model.
  foreach(model machine os-fork cluster)
    foreach(src ${clean_sources})
      execute_process(
        COMMAND ${FORCEPP} ${src} --lint --Werror --process-model=${model}
          --o=${WORK_DIR}/lint_out.cpp
        RESULT_VARIABLE rc OUTPUT_VARIABLE o ERROR_VARIABLE e)
      if(NOT rc EQUAL 0)
        message(FATAL_ERROR
          "forcepp --lint --Werror --process-model=${model} flagged ${src}:"
          "\n${e}")
      endif()
      message(STATUS "lint clean (${model}): ${src}")
    endforeach()
  endforeach()
  # The separately compiled module unit needs --module.
  execute_process(
    COMMAND ${FORCEPP} ${EXAMPLES_DIR}/multifile/stats_module.force
      --module --lint --Werror --o=${WORK_DIR}/lint_module.cpp
    RESULT_VARIABLE rc OUTPUT_VARIABLE o ERROR_VARIABLE e)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "forcepp --module --lint --Werror flagged "
                        "stats_module.force:\n${e}")
  endif()
  message(STATUS "lint clean: ${EXAMPLES_DIR}/multifile/stats_module.force")
  # Each seeded fixture must fail, naming its rule. R7 fixtures are
  # portability findings: they only fire against the process model that
  # rejects the construct, so those runs add --process-model=os-fork
  # (or =cluster for the *_cluster fixtures - Isfull is cluster-only).
  foreach(rule 1 2 3 4 5 6 7)
    file(GLOB fixtures "${LINT_FIXTURE_DIR}/r${rule}_*.force")
    list(SORT fixtures)
    list(LENGTH fixtures n)
    if(n EQUAL 0)
      message(FATAL_ERROR "expected at least one r${rule}_*.force fixture")
    endif()
    foreach(fixture ${fixtures})
      set(extra_flags "")
      if(rule EQUAL 7)
        if(fixture MATCHES "_cluster\\.force$")
          set(extra_flags "--process-model=cluster")
        else()
          set(extra_flags "--process-model=os-fork")
        endif()
      endif()
      execute_process(
        COMMAND ${FORCEPP} ${fixture} --lint --Werror ${extra_flags}
          --o=${WORK_DIR}/lint_seeded.cpp
        RESULT_VARIABLE rc OUTPUT_VARIABLE o ERROR_VARIABLE e)
      if(rc EQUAL 0)
        message(FATAL_ERROR "seeded fixture ${fixture} was not flagged")
      endif()
      if(NOT e MATCHES "force-lint-R${rule}")
        message(FATAL_ERROR
          "${fixture} failed without mentioning force-lint-R${rule}:\n${e}")
      endif()
      message(STATUS "lint fixture OK: ${fixture} -> force-lint-R${rule}")
    endforeach()
  endforeach()

  # Whole-program mode over the multifile example: Forcecall sites resolve
  # across units, the program stays clean, and the machine-readable report
  # lists it os-fork compatible (the seed acceptance case).
  execute_process(
    COMMAND ${FORCEPP} ${EXAMPLES_DIR}/multifile/main.force
      --lint --Werror
      --lint-units=${EXAMPLES_DIR}/multifile/stats_module.force
      --lint-report=${WORK_DIR}/lint_report.json
      --o=${WORK_DIR}/lint_program.cpp
    RESULT_VARIABLE rc OUTPUT_VARIABLE o ERROR_VARIABLE e)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "whole-program lint flagged examples/multifile:\n${e}")
  endif()
  file(READ "${WORK_DIR}/lint_report.json" report)
  if(NOT report MATCHES "\"schema_version\": 1")
    message(FATAL_ERROR "lint report missing schema_version:\n${report}")
  endif()
  if(NOT report MATCHES "\"model\": \"os-fork\", \"compatible\": true")
    message(FATAL_ERROR
      "multifile example should be os-fork compatible:\n${report}")
  endif()
  message(STATUS "whole-program lint OK: examples/multifile (report valid)")

  # The cross-file seeded fixture: the lock-order cycle exists only when
  # both units are linted together, and the report must call it out.
  execute_process(
    COMMAND ${FORCEPP} ${LINT_FIXTURE_DIR}/multifile/r4x_main.force
      --lint --Werror
      --lint-units=${LINT_FIXTURE_DIR}/multifile/r4x_stats.force
      --lint-report=${WORK_DIR}/lint_report_r4x.json
      --o=${WORK_DIR}/lint_program_r4x.cpp
    RESULT_VARIABLE rc OUTPUT_VARIABLE o ERROR_VARIABLE e)
  if(rc EQUAL 0)
    message(FATAL_ERROR "cross-file R4 fixture was not flagged")
  endif()
  if(NOT e MATCHES "force-lint-R4")
    message(FATAL_ERROR
      "cross-file fixture failed without force-lint-R4:\n${e}")
  endif()
  # Each unit alone must be clean - the finding requires the whole program.
  execute_process(
    COMMAND ${FORCEPP} ${LINT_FIXTURE_DIR}/multifile/r4x_main.force
      --lint --Werror --o=${WORK_DIR}/lint_single_r4x.cpp
    RESULT_VARIABLE rc OUTPUT_VARIABLE o ERROR_VARIABLE e)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "r4x_main.force alone should lint clean (cycle needs both units):\n${e}")
  endif()
  message(STATUS "whole-program lint OK: cross-file R4 fixture")
  return()
endif()

foreach(machine hep flex32 encore sequent alliant cray2 native)
  set(out "${WORK_DIR}/pipeline_${machine}.cpp")
  execute_process(
    COMMAND ${FORCEPP} ${SOURCE} --machine ${machine} --o=${out}
    RESULT_VARIABLE rc OUTPUT_VARIABLE o ERROR_VARIABLE e)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "forcepp failed for ${machine}: ${e}")
  endif()
  execute_process(
    COMMAND c++ -std=c++20 -fsyntax-only -I${INCLUDE_DIR} ${out}
    RESULT_VARIABLE rc OUTPUT_VARIABLE o ERROR_VARIABLE e)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "generated code does not compile for ${machine}: ${e}")
  endif()
  message(STATUS "pipeline OK for ${machine}")
endforeach()
