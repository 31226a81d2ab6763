; Minimized from generated-corpus seed 612 (CKPT and SM-flushing at a
; 0.7 signal fraction).
;
; Two warps share one block's LDS. Warp 0 stores its share and finishes
; at once; warp 1 keeps updating its own share in a loop. A signal that
; lands after warp 0 is done widens warp 1's save share over warp 0's
; orphaned slice. CKPT and SM-flushing saved warp 1's LDS before the
; signal (at checkpoint 0, or as the launch-zero entry image), so the
; load must restore the range that was saved, not the widened share —
; otherwise the resume faults with "LDS share size mismatch".
.kernel reg-lds-share-widen
.vregs 3
.sregs 8
.lds 512
  s_and s5, s4, 512           ; 0 for warp 0, 512 for warp 1
  s_shr s6, s5, 1             ; own share base: 0 or 256 bytes
  s_shr s7, s5, 5             ; loop trips: 0 for warp 0, 16 for warp 1
  v_laneid v0
  v_shl v0, v0, 2 !noovf
  v_add v0, v0, s6 !noovf     ; own share word
  v_mov v1, 5
  v_lstore v0, v1, 0
loop:
  s_cmp_eq s7, 0
  s_cbranch_scc1 done
  v_lload v1, v0, 0
  v_add v1, v1, 3
  v_lstore v0, v1, 0
  s_sub s7, s7, 1
  s_branch loop
done:
  v_lload v2, v0, 0
  v_laneid v0
  v_shl v0, v0, 2 !noovf
  v_add v0, v0, s4 !noovf
  v_gstore v0, v2, 0
  s_endpgm
