# Writes OUT as a one-line header defining TILUS_GIT_DESCRIBE from
# `git describe --always --dirty` of SRC ("unknown" without git).
# Run at build time (root CMakeLists.txt); the file is rewritten only
# when the stamp changes, so an unchanged tree rebuilds nothing.
set(describe "unknown")
if(GIT)
  execute_process(
    COMMAND ${GIT} describe --always --dirty
    WORKING_DIRECTORY ${SRC}
    OUTPUT_VARIABLE out
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE rc)
  if(rc EQUAL 0 AND NOT out STREQUAL "")
    set(describe "${out}")
  endif()
endif()
set(content "#define TILUS_GIT_DESCRIBE \"${describe}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL content)
  file(WRITE ${OUT} "${content}")
endif()
