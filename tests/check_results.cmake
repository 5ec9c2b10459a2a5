# Regenerates the committed results/${ENTRY} with its results/MANIFEST
# command and fails unless every file that command writes under results/
# matches the committed copy byte for byte. Invoked by ctest through
#   cmake -DROOT=<source dir> -DBUILD=<build dir> -DENTRY=<file> -P check_results.cmake
#
# The command runs from ROOT, with ./build/ standing for BUILD and its
# output redirections (> results/..., 2> results/...) moved under
# BUILD/check_results/; input redirections still read the committed files.
# A command that also writes its stderr under results/ runs with
# LAZYREP_JOBS=1, the one level at which its progress lines reproduce. A
# command with no output redirection of its own writes the entry on stdout;
# a "(the file is an N-line comment header and a blank line, ...)" note says
# the entry holds that header above the output.

cmake_policy(SET CMP0057 NEW)  # if(IN_LIST)
set(out_dir "${BUILD}/check_results")
file(STRINGS "${ROOT}/results/MANIFEST" lines)
set(command "")
foreach(line IN LISTS lines)
  if(line MATCHES "^([^ #]+) +(.+)$" AND CMAKE_MATCH_1 STREQUAL ENTRY)
    set(command "${CMAKE_MATCH_2}")
  endif()
endforeach()
if(command STREQUAL "")
  message(FATAL_ERROR "results/MANIFEST has no line for ${ENTRY}")
endif()
set(header_lines 0)
if(command MATCHES "^(.*[^ ]) +\\((.*)\\)$")
  set(command "${CMAKE_MATCH_1}")
  if(CMAKE_MATCH_2 MATCHES "([0-9]+)-line comment header and a blank line")
    math(EXPR header_lines "${CMAKE_MATCH_1} + 1")
  endif()
endif()

# Every file the command writes under results/, and whether stdout is the
# entry itself.
string(REGEX MATCHALL "> results/[^ ]+" redirects "${command}")
set(outputs "")
foreach(r IN LISTS redirects)
  string(REPLACE "> results/" "" f "${r}")
  list(APPEND outputs "${f}")
endforeach()
set(stdout_file "")
if(NOT ENTRY IN_LIST outputs)
  set(stdout_file "${out_dir}/${ENTRY}")
  list(APPEND outputs "${ENTRY}")
endif()
foreach(f IN LISTS outputs)
  get_filename_component(dir "${out_dir}/${f}" DIRECTORY)
  file(MAKE_DIRECTORY "${dir}")
endforeach()

string(REPLACE "./build/" "${BUILD}/" cmd "${command}")
string(REPLACE "> results/" "> ${out_dir}/" cmd "${cmd}")
string(REPLACE "< results/" "< ${ROOT}/results/" cmd "${cmd}")
if(command MATCHES "2> results/")
  set(ENV{LAZYREP_JOBS} 1)
endif()
if(stdout_file STREQUAL "")
  execute_process(COMMAND sh -c "${cmd}" WORKING_DIRECTORY "${ROOT}"
                  RESULT_VARIABLE code)
else()
  execute_process(COMMAND sh -c "${cmd}" WORKING_DIRECTORY "${ROOT}"
                  OUTPUT_FILE "${stdout_file}" RESULT_VARIABLE code)
endif()
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "${cmd}\nexited ${code}")
endif()

foreach(f IN LISTS outputs)
  set(want "${ROOT}/results/${f}")
  if(f STREQUAL ENTRY AND header_lines GREATER 0)
    # Compare below the hand-written header.
    file(READ "${want}" body)
    foreach(i RANGE 1 ${header_lines})
      string(FIND "${body}" "\n" nl)
      math(EXPR nl "${nl} + 1")
      string(SUBSTRING "${body}" ${nl} -1 body)
    endforeach()
    set(want "${out_dir}/${f}.below_header")
    file(WRITE "${want}" "${body}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${want}" "${out_dir}/${f}"
                  RESULT_VARIABLE differs)
  if(NOT differs STREQUAL "0")
    execute_process(COMMAND diff "${want}" "${out_dir}/${f}"
                    OUTPUT_VARIABLE delta)
    string(SUBSTRING "${delta}" 0 2000 delta)
    message(FATAL_ERROR "results/${f} does not regenerate from\n"
                        "  ${command}\n${delta}")
  endif()
endforeach()
