.name map_size_wraps
.ctx packet
.map m array 4 8 4294967297   ; one past UINT32_MAX: truncated, 1 entry
  mov r0, PASS
  exit
