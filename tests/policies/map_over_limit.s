.name map_over_limit
.ctx packet
.map m array 4 8 30000000      ; 360 MB by CreateMap's count, over its limit
  mov r0, PASS
  exit
