open! Import

(** Campaign-service request vocabulary.

    A {!spec} is what a client submits: one of the three one-shot
    pipelines (campaign / inject / fuzz) with exactly the parameters the
    CLI subcommand takes, cores and mitigations carried by name so the
    wire format never embeds a machine configuration.  A {!work} item is
    what a worker process executes: the kind-specific options plus the
    explicit test-case slice of one shard. *)

type case_desc = {
  cd_id : int;  (** Global corpus id — preserved so report lines match. *)
  cd_path : string;  (** [Access_path.to_string] name. *)
  cd_offset : int;
  cd_width : int;
  cd_variant : int;
  cd_seed : Word.t;
}

val case_desc_of_testcase : Testcase.t -> case_desc

(** Re-assemble the test case.  Raises [Invalid_argument] on an unknown
    access path or invalid parameters. *)
val testcase_of_case_desc : case_desc -> Testcase.t

val case_desc_equal : case_desc -> case_desc -> bool
val pp_case_desc : Format.formatter -> case_desc -> unit

type corpus_kind =
  | Slice  (** The representative slice (the CLI default). *)
  | Full  (** All 585 grid cases. *)
  | Random of { count : int; seed : Word.t }  (** Long-fuzzing mode. *)

type spec =
  | Campaign of {
      core : string;
      mitigations : string list;
      corpus : corpus_kind;
    }
  | Inject of { core : string; faults : int; seed : Word.t; full : bool }
  | Fuzz of { core : string; options : Engine.options }

(** "campaign", "inject" or "fuzz". *)
val kind : spec -> string

(** Resolve a core name and mitigation names (both case-insensitive)
    into a machine configuration.  [Error] names the unknown core or
    mitigation. *)
val resolve_config :
  core:string -> mitigations:string list -> (Config.t, string) result

(** {!resolve_config} on the spec's core (and, for campaigns, its
    mitigations). *)
val config_of : spec -> (Config.t, string) result

(** {!config_of} after a range check of the numeric parameters: inject
    [faults >= 0]; fuzz [budget >= 0], [batch >= 1], [energy] in
    [0..100].  [Error] names the first offending field.  The planner
    and the CLI both gate on this, so the daemon and the one-shot
    subcommands refuse the same specs. *)
val validate : spec -> (Config.t, string) result

(** The test cases a corpus choice stands for, in execution order. *)
val corpus_cases : corpus_kind -> Testcase.t list

(** The test-case corpus the request covers ({!corpus_cases} of its
    corpus choice).  Empty for fuzz requests (the engine generates its
    own candidate stream). *)
val corpus_of : spec -> Testcase.t list

(** Canonical (field, value) pairs identifying the request — the input
    to {!Store.digest_of_fields} for the job id.  Includes the code
    version, so artifacts computed by a different build never collide. *)
val digest_fields : spec -> (string * string) list

val encode_spec : Codec.enc -> spec -> unit
val decode_spec : Codec.dec -> spec
val pp_spec : Format.formatter -> spec -> unit

type work =
  | W_campaign of {
      core : string;
      mitigations : string list;
      cases : case_desc list;
    }
  | W_inject of {
      core : string;
      faults : int;
      seed : Word.t;
      cases : case_desc list;
    }
  | W_fuzz of { core : string; options : Engine.options }

(** The work item's test-case slice ([] for fuzz). *)
val work_cases : work -> case_desc list

val encode_work : Codec.enc -> work -> unit
val decode_work : Codec.dec -> work
