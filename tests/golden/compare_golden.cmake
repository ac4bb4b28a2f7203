# Byte-for-byte golden check for one bench binary, run as
#
#   cmake -DBENCH=<binary> -DGOLDEN_DIR=<tests/golden> -DOUT_DIR=<dir>
#         -P compare_golden.cmake
#
# Runs the bench at smoke size (VATTN_BENCH_SMOKE=1) with its JSON
# report redirected into OUT_DIR, then compares both the captured
# stdout and BENCH_<name>.json against the checked-in goldens.
# Regenerate the goldens with tools/update_goldens.py.

foreach(var BENCH GOLDEN_DIR OUT_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "compare_golden.cmake: ${var} is not set")
    endif()
endforeach()

get_filename_component(bench_name "${BENCH}" NAME_WE)
string(REGEX REPLACE "^bench_" "" json_name "${bench_name}")
set(json_file "BENCH_${json_name}.json")

file(MAKE_DIRECTORY "${OUT_DIR}")
file(REMOVE "${OUT_DIR}/${bench_name}.stdout" "${OUT_DIR}/${json_file}")
set(ENV{VATTN_BENCH_SMOKE} 1)
set(ENV{VATTN_BENCH_JSON_DIR} "${OUT_DIR}")
execute_process(
    COMMAND "${BENCH}"
    OUTPUT_FILE "${OUT_DIR}/${bench_name}.stdout"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${bench_name} exited with status ${status}")
endif()

set(mismatched "")
foreach(file "${bench_name}.stdout" "${json_file}")
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${GOLDEN_DIR}/${file}" "${OUT_DIR}/${file}"
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        list(APPEND mismatched "${file}")
    endif()
endforeach()
if(mismatched)
    message(FATAL_ERROR
        "${bench_name}: output differs from the golden in ${GOLDEN_DIR}:"
        " ${mismatched} (fresh output in ${OUT_DIR}; inspect with diff,"
        " regenerate with tools/update_goldens.py if the change is"
        " intended)")
endif()
