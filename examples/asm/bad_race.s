; A cross-thread RACE as a paired fixture for `npralc verify --paired`: the
; first half of the threads is the virtual input, the second half the
; claimed physical output — bad_alloc.s's two threads with their bodies
; unchanged. Each
; thread on its own is a faithful translation, but beta writes p1 and p2,
; which alpha keeps live across its two load CSBs. The translation
; validator clobbers every register another thread references at each CSB,
; so it must reject alpha's reads of p1 and p2 after the switches: the same
; two registers the cross-thread-race checker reports on bad_alloc.s.
.thread alpha
.entrylive base
main:
    imm  a, 1
    imm  b, 2
    load x, [base+0]
    add  a, a, x
    load y, [base+1]
    add  b, b, y
    add  a, a, b
    store [base+0], a
    halt

.thread beta
.entrylive out
main:
    imm  c, 7
    imm  d, 9
    add  e, c, d
    store [out+0], e
    halt

.thread alpha.phys
.entrylive p0
main:
    imm  p1, 1
    imm  p2, 2
    load p3, [p0+0]        ; CSB: p1 and p2 are live across this switch
    add  p1, p1, p3
    load p4, [p0+1]        ; CSB: p1 and p2 are live across again
    add  p2, p2, p4
    add  p1, p1, p2
    store [p0+0], p1
    halt

.thread beta.phys
.entrylive p6
main:
    imm  p1, 7             ; clobbers alpha's private p1
    imm  p2, 9             ; clobbers alpha's private p2
    add  p5, p1, p2
    store [p6+0], p5
    halt
