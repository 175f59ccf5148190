# CTest script that runs several test executables as one test: each entry
# of COMMANDS (a ;-list of paths) in turn, failing on the first non-zero
# exit. Lets one ctest entry re-run a group of gtest binaries under a
# shared forced environment (see simd_dispatch_defense).
foreach(command IN LISTS COMMANDS)
  execute_process(COMMAND ${command} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${command} failed: ${rc}")
  endif()
endforeach()
