# Run a cryowire_sweep and compare the SHA-256 of its output with a
# committed digest. Used by the dse_sweep_10k_* ctests:
#
#   cmake -DSWEEP=<cryowire_sweep> -DSPEC=<spec.json> -DJOBS=<n>
#         -DOUT=<output.jsonl> -DGOLDEN=<file holding the digest>
#         -P sweep_digest.cmake
#
# The output is kept on a mismatch, for diffing against a known-good
# run, and removed otherwise.

foreach(var SWEEP SPEC JOBS OUT GOLDEN)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "sweep_digest: -D${var}=... is required")
    endif()
endforeach()

execute_process(
    COMMAND ${SWEEP} --spec ${SPEC} --jobs ${JOBS} --out ${OUT} --quiet
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cryowire_sweep exited ${rc}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E sha256sum ${OUT}
    OUTPUT_VARIABLE line
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cannot hash ${OUT}")
endif()
string(REGEX MATCH "^[0-9a-f]+" got "${line}")
file(READ ${GOLDEN} want)
string(STRIP "${want}" want)

if(NOT got STREQUAL want)
    file(SIZE ${OUT} bytes)
    message(FATAL_ERROR "${OUT} (${bytes} bytes, --jobs ${JOBS}): "
                        "SHA-256 ${got}, expected ${want} (${GOLDEN})")
endif()
file(REMOVE ${OUT})
