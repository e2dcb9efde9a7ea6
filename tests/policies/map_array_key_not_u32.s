.name map_array_key_not_u32
.ctx packet
.map m array 8 8 1             ; array keys are u32 indices
  mov r0, PASS
  exit
