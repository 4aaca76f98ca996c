(** Admission control: lint a prepared update {e before} the VM pauses.

    Static checks over the spec, the compiled transformer bundle and the
    post-update class world — diff consistency, strict verification of
    the new program, stub/layout-closure agreement, Transformer-mode
    verification of the transformer bytecode against new program +
    stubs, presence of every required [jvolveClass]/[jvolveObject], and
    field-mapping type compatibility.  A rejection costs milliseconds of
    preparation time instead of a stop-the-world pause followed by a
    rollback. *)

type severity =
  | Reject  (** always sinks the update *)
  | Warn  (** admitted, unless strict mode promotes it *)

type verdict = { v_severity : severity; v_check : string; v_detail : string }

type report = {
  a_verdicts : verdict list;
  a_checks : int;  (** checks run *)
  a_ms : float;
}

val verdict_to_string : verdict -> string

val review : ?confree:bool -> Transformers.prepared -> report
(** [confree] (default [true]) additionally certifies the con-freeness
    proof set against the bundle: every proof must re-validate its
    recorded obligations and the proven set must be closed under the
    call graph; blacklist entries shadowing a proof are surfaced as
    warnings.  The report is built once per [confree] flag and stored on
    the prepared value: a later review of it returns the same report,
    [a_ms] included. *)

val rejections : strict:bool -> report -> string list
(** The rendered verdicts that sink the update: every [Reject], plus
    every [Warn] when [strict]. *)

val ok : strict:bool -> report -> bool
