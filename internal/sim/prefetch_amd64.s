#include "textflag.h"

// func prefetch(r *record)
TEXT ·prefetch(SB), NOSPLIT, $0-8
	MOVQ r+0(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	RET
