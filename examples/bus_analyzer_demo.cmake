# Test script: run `bus_analyzer --demo`, keep the candump log it recorded
# and compare it with the pinned digest. The log is the demo scenario's
# whole bus history, so any change to how traffic is recorded or rendered
# as candump text shows up here byte for byte.
set(log "${WORK_DIR}/bus_analyzer_demo.candump")
execute_process(COMMAND "${ANALYZER}" --demo "${log}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bus_analyzer --demo failed (rc=${rc}):\n${out}")
endif()
file(SHA256 "${log}" digest)
file(STRINGS "${log}" lines)
list(LENGTH lines line_count)
if(NOT digest STREQUAL EXPECT_SHA256)
  message(FATAL_ERROR "demo candump log changed: ${line_count} lines, "
                      "sha256 ${digest}, expected sha256 ${EXPECT_SHA256}")
endif()
