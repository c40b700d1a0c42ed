(** Checker recipes (§4.1 "enhance C with runtime checks"): per-op-kind
    safety checks appended to reduced units.

    - After a mimicked full write: read back and verify the checksum (on the
      checker's scratch copy — side-effect free, same device).
    - Around a mimicked read of a context-supplied path: tolerate legitimate
      staleness (the file may have been consumed since capture) by reading a
      live file from the same directory; only "no such file" is benign.

    Inserted statements reuse the anchor operation's location so failures
    pinpoint the original program statement. *)

val enhance_unit : Wd_analysis.Reduction.unit_ -> Wd_analysis.Reduction.unit_
