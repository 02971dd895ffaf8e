(* The typed-AST pass.  One [scan_cmt] per compilation unit: load the
   .cmt, walk the typedtree with a Tast_iterator, apply the four rule
   families (DESIGN.md §12) under the path scopes of [Lint_config], and
   honour [@lint.allow]/[@@@lint.zero_alloc_hot]/[@@lint.bounds_checked]
   attributes as they come into scope. *)

open Typedtree

type scan = {
  findings : Finding.t list;
  suppressed : (Finding.t * string) list;
      (* finding silenced by a justified allow, with its justification *)
}

let empty_scan = { findings = []; suppressed = [] }

let merge a b =
  {
    findings = a.findings @ b.findings;
    suppressed = a.suppressed @ b.suppressed;
  }

(* ------------------------------------------------------------------ *)
(* Identifier tables                                                   *)
(* ------------------------------------------------------------------ *)

let norm_path p =
  let n = Path.name p in
  let prefix = "Stdlib." in
  if
    String.length n > String.length prefix
    && String.equal (String.sub n 0 (String.length prefix)) prefix
  then String.sub n (String.length prefix) (String.length n - String.length prefix)
  else n

let mem_name name set = List.exists (String.equal name) set

let self_init_names = [ "Random.self_init"; "Random.State.make_self_init" ]
let wall_clock_names = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]
let domain_spawn_names = [ "Domain.spawn" ]

(* any Atomic.* operation: matched by module prefix rather than an
   explicit list because the whole module is off-limits outside the
   barrier code — shard-confined plain state plus the window barrier is
   the project's synchronization discipline *)
let atomic_name name = String.length name > 7 && String.sub name 0 7 = "Atomic."

let hashtbl_order_names =
  [
    "Hashtbl.iter";
    "Hashtbl.fold";
    "Hashtbl.to_seq";
    "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let unsafe_names =
  [
    "Array.unsafe_get";
    "Array.unsafe_set";
    "Bytes.unsafe_get";
    "Bytes.unsafe_set";
  ]

let alloc_array_names =
  [
    "Array.copy"; "Array.append"; "Array.sub"; "Array.init"; "Array.make";
    "Array.create_float"; "Array.make_matrix"; "Array.of_list";
    "Array.to_list"; "Array.of_seq"; "Array.to_seq"; "Array.to_seqi";
    "Array.map"; "Array.mapi"; "Array.map2"; "Array.concat"; "Array.split";
    "Array.combine";
  ]

let alloc_list_names =
  [
    "List.map"; "List.mapi"; "List.map2"; "List.rev"; "List.rev_map";
    "List.append"; "List.rev_append"; "List.concat"; "List.concat_map";
    "List.flatten"; "List.filter"; "List.filteri"; "List.filter_map";
    "List.partition"; "List.init"; "List.sort"; "List.stable_sort";
    "List.fast_sort"; "List.sort_uniq"; "List.merge"; "List.split";
    "List.combine"; "List.of_seq"; "List.cons"; "@";
  ]

let alloc_string_names =
  [
    "^"; "String.make"; "String.init"; "String.sub"; "String.concat";
    "String.cat"; "String.map"; "String.mapi"; "String.split_on_char";
    "String.to_bytes"; "String.of_bytes"; "String.uppercase_ascii";
    "String.lowercase_ascii"; "String.capitalize_ascii"; "Bytes.create";
    "Bytes.make"; "Bytes.init"; "Bytes.sub"; "Bytes.copy"; "Bytes.extend";
    "Bytes.cat"; "Bytes.concat"; "Bytes.of_string"; "Bytes.to_string";
    "Printf.sprintf"; "Format.sprintf"; "Format.asprintf";
  ]

let alloc_ref_names = [ "ref" ]
let polycmp_equal_names = [ "="; "<>" ]
let polycmp_order_names = [ "compare"; "min"; "max"; "<"; ">"; "<="; ">=" ]
let polycmp_hash_names = [ "Hashtbl.hash"; "Hashtbl.seeded_hash" ]

(* ------------------------------------------------------------------ *)
(* mt/*: shard-ownership tables (DESIGN.md §16)                        *)
(* ------------------------------------------------------------------ *)

(* Does the (Stdlib-stripped) path [name] end in the dotted name [short]?
   Matches through module aliases and dune's wrapped-library prefixes
   ("Barrier_team.run_sub", "Rdt_parallel.Barrier_team.run_sub" and
   "Rdt_parallel__Barrier_team.run_sub" all match
   "Barrier_team.run_sub") but never a partial component. *)
let name_suffix name short =
  String.equal name short
  || String.length name > String.length short
     && (let nl = String.length name and sl = String.length short in
         String.equal (String.sub name (nl - sl) sl) short
         && (match name.[nl - sl - 1] with '.' | '_' -> true | _ -> false))

(* undotted names (incr, ref, :=) are Stdlib values after [norm_path];
   suffix-matching those would swallow every [Foo.incr] in the tree *)
let name_matches name short =
  if String.contains short '.' then name_suffix name short
  else String.equal name short

let mem_match name set = List.exists (name_matches name) set

(* Functions whose closure argument runs on another domain.  [`All]: the
   closure's parameters are member/shard indices the scope owns (a
   barrier team invokes the job with the member index); [`None]: the
   parameters carry no ownership.  [@@@lint.domain_scope] declares
   further entry points by function name. *)
let scope_call_specs =
  [
    ("Barrier_team.run_sub", `All);
    ("Barrier_team.run", `All);
    ("Domain.spawn", `All);
    ("Barrier_team.map", `None);
    (* pinned/owned engine callbacks execute inside the owning shard's
       window; the closure parameters (a sender pid, a message) are not
       shard-derived *)
    ("Engine.schedule", `None);
    ("Engine.schedule_in", `None);
    ("Engine.set_receiver", `None);
  ]

(* functions whose result is the executing member/shard index *)
let domain_index_builtin = [ "Barrier_team.self_index" ]

(* Mutating operations: (name, position of the mutated value among the
   unlabelled arguments, position of the striping index when the
   operation is itself indexed).  Atomic.* is deliberately absent — an
   atomic access inside a scope is the sanctioned escape. *)
let mutator_specs =
  [
    (":=", 0, None);
    ("incr", 0, None);
    ("decr", 0, None);
    ("Array.set", 0, Some 1);
    ("Array.unsafe_set", 0, Some 1);
    ("Array.fill", 0, None);
    ("Array.blit", 2, None);
    ("Array.sort", 1, None);
    ("Bytes.set", 0, Some 1);
    ("Bytes.unsafe_set", 0, Some 1);
    ("Bytes.fill", 0, None);
    ("Bytes.blit", 2, None);
    ("Hashtbl.replace", 0, None);
    ("Hashtbl.add", 0, None);
    ("Hashtbl.remove", 0, None);
    ("Hashtbl.reset", 0, None);
    ("Hashtbl.clear", 0, None);
    ("Hashtbl.filter_map_inplace", 1, None);
    ("Buffer.add_string", 0, None);
    ("Buffer.add_char", 0, None);
    ("Buffer.add_bytes", 0, None);
    ("Buffer.add_substring", 0, None);
    ("Buffer.clear", 0, None);
    ("Buffer.reset", 0, None);
    ("Queue.push", 1, None);
    ("Queue.add", 1, None);
    ("Queue.pop", 0, None);
    ("Queue.take", 0, None);
    ("Queue.take_opt", 0, None);
    ("Queue.clear", 0, None);
    ("Stack.push", 1, None);
    ("Stack.pop", 0, None);
    (* project containers: pooled event queues, trace vectors, stamp
       cells, striped metrics counters *)
    ("Event_queue.add", 0, None);
    ("Event_queue.add_keyed", 0, None);
    ("Event_queue.add_keyed_unit", 0, None);
    ("Event_queue.pop", 0, None);
    ("Vec.push", 0, None);
    ("Vec.set", 0, Some 1);
    ("Vec.clear", 0, None);
    ("Vec.truncate", 0, None);
    ("Stamp.set", 0, None);
    ("Shard_counter.incr", 0, Some 1);
    ("Shard_counter.add", 0, Some 1);
  ]

let find_mutator name =
  List.find_opt (fun (s, _, _) -> name_matches name s) mutator_specs

(* indexed reads a write target may be reached through *)
let index_get_names =
  [ "Array.get"; "Array.unsafe_get"; "Bytes.get"; "Bytes.unsafe_get"; "Vec.get" ]

(* allocators whose result a scope owns outright (freshly allocated
   inside it) — also the RHS shapes that make a top-level binding a
   mutable global for mt/shared-write and mt/non-atomic-read *)
let local_alloc_names =
  [
    "ref"; "Array.make"; "Array.init"; "Array.copy"; "Array.of_list";
    "Array.append"; "Array.sub"; "Array.create_float"; "Array.make_matrix";
    "Bytes.create"; "Bytes.make"; "Bytes.of_string"; "Buffer.create";
    "Hashtbl.create"; "Queue.create"; "Stack.create"; "Vec.create";
    "Stamp.create"; "Event_queue.create";
  ]

(* ------------------------------------------------------------------ *)
(* Type scrutiny for the polycmp family                                *)
(* ------------------------------------------------------------------ *)

let scalar_paths =
  [
    Predef.path_int; Predef.path_char; Predef.path_bool; Predef.path_unit;
    Predef.path_float; Predef.path_string; Predef.path_bytes;
    Predef.path_int32; Predef.path_int64; Predef.path_nativeint;
  ]

let env_of exp =
  match Envaux.env_of_only_summary exp.exp_env with
  | env -> env
  | exception _ -> Env.empty

(* A type is "scalar" when polymorphic compare on it is both correct and
   cheap: the predefined immediates plus float/string/bytes and boxed
   integers.  Type variables are skipped: a genuinely polymorphic helper
   is not an instantiation site. *)
let rec head_is_scalar env ty ~fuel =
  match Types.get_desc ty with
  | Tvar _ | Tunivar _ -> true
  | Tpoly (ty, _) -> head_is_scalar env ty ~fuel
  | Tconstr (p, _, _) ->
    List.exists (fun sp -> Path.same p sp) scalar_paths
    || fuel > 0
       && begin
         match Ctype.expand_head env ty with
         | ty' -> begin
           match Types.get_desc ty' with
           | Tconstr (p', _, _) when Path.same p p' -> false
           | _ -> head_is_scalar env ty' ~fuel:(fuel - 1)
         end
         | exception _ -> false
       end
  | _ -> false

let first_arg_type ty =
  match Types.get_desc ty with
  | Tarrow (_, arg, _, _) -> Some arg
  | _ -> None

let rec result_type ty =
  match Types.get_desc ty with
  | Tarrow (_, _, res, _) -> result_type res
  | _ -> ty

let is_function_type ty =
  match Types.get_desc ty with Tarrow _ -> true | _ -> false

let type_to_string ty =
  match Format.asprintf "%a" Printtyp.type_expr ty with
  | s -> s
  | exception _ -> "<type>"

(* ------------------------------------------------------------------ *)
(* Traversal context                                                   *)
(* ------------------------------------------------------------------ *)

(* What a domain-crossing scope knows about a value: [Owned] — derived
   from the scope's shard/pid parameter (a declared root, or computed
   from one); [Local] — allocated inside the scope; [Foreign] — captured
   from outside.  Ownership is the max over the mentions feeding a
   value, so [t.shards.(s)] with owned [s] is owned. *)
type origin = Foreign | Local | Owned

let rank = function Foreign -> 0 | Local -> 1 | Owned -> 2

type scope_frame = {
  sid : int;  (* stable across the two passes: same traversal order *)
  roots : string list;  (* binding names trusted as owned in this scope *)
}

type ctx = {
  cfg : Lint_config.t;
  file : string;
  mutable top : string;
  mutable findings : Finding.t list;
  mutable suppressed : (Finding.t * string) list;
  mutable allows : Suppress.allow list;  (* innermost first *)
  mutable all_allows : Suppress.allow list;
  mutable hot_module : bool;
  mutable hot_names : string list;
  mutable hot_depth : int;
  mutable bounds_depth : int;
  globals : (Ident.t, unit) Hashtbl.t;
  rec_ids : (Ident.t, unit) Hashtbl.t;
  mutable peeled : expression list;
  (* mt/*: shard-ownership state *)
  reporting : bool;
      (* pass 1 (false) only collects [gwrites]; pass 2 (true) reports *)
  gwrites : (string, int list ref) Hashtbl.t;
      (* top-level mutable binding -> scope ids with a non-owned write;
         shared between the two passes of one compilation unit *)
  mutable scopes : scope_frame list;  (* innermost first *)
  mutable next_sid : int;
  mutable scope_lambdas : (expression * [ `All | `None ]) list;
      (* lambda literals passed to a scope entry point, keyed physically;
         [`All]/[`None]: whether their parameters are owned *)
  origin : (Ident.t, origin) Hashtbl.t;
  mutable target_roots : expression list;
      (* root ident nodes already consumed as write targets, so the read
         rule does not re-flag the mention inside the write itself *)
  domain_scopes : (string, string list) Hashtbl.t;
      (* [@@@lint.domain_scope "fn:root:..."]: function name -> roots *)
  mutable domain_index_names : string list;
  mutable sws : Suppress.single_writer list;  (* innermost first *)
  mutable all_sws : Suppress.single_writer list;
  mutable_globals : (Ident.t, unit) Hashtbl.t;
}

let loc_pos (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let report ctx ~loc ~rule ~severity ~msg =
  if not ctx.reporting then ()
  else begin
    let line, col = loc_pos loc in
    let finding =
      {
        Finding.rule;
        severity;
        file = ctx.file;
        line;
        col;
        context = ctx.top;
        message = msg;
      }
    in
    let matching =
      List.find_opt
        (fun (a : Suppress.allow) ->
          Option.is_some a.justification
          && Suppress.allow_matches ~allow_rule:a.rule ~justified:true ~rule)
        ctx.allows
    in
    match matching with
    | Some a ->
      a.used <- true;
      let why = Option.value a.justification ~default:"" in
      ctx.suppressed <- (finding, why) :: ctx.suppressed
    | None -> begin
      (* [@lint.allow] wins; a justified [@lint.single_writer] in scope
         silences only the mt/* write rules *)
      let sw =
        if Suppress.single_writer_silences rule then
          List.find_opt
            (fun (s : Suppress.single_writer) ->
              Option.is_some s.sw_justification)
            ctx.sws
        else None
      in
      match sw with
      | Some s ->
        s.sw_used <- true;
        ctx.suppressed <- (finding, Option.get s.sw_justification) :: ctx.suppressed
      | None -> ctx.findings <- finding :: ctx.findings
    end
  end

let error ctx ~loc ~rule ~msg =
  report ctx ~loc ~rule ~severity:Finding.Error ~msg

(* Parse and activate [@lint.allow] attributes; returns how many allows
   were pushed so the caller can pop them when the scope closes. *)
let push_allows ctx (attrs : Parsetree.attributes) =
  let pushed = ref 0 in
  List.iter
    (fun parsed ->
      match parsed with
      | Suppress.Malformed (msg, loc) ->
        error ctx ~loc ~rule:"lint/bad-allow" ~msg
      | Suppress.Allow a ->
        if Option.is_none a.justification then
          error ctx ~loc:a.loc ~rule:"lint/missing-justification"
            ~msg:
              (Printf.sprintf
                 "[@lint.allow \"%s\"] needs a justification string" a.rule);
        ctx.allows <- a :: ctx.allows;
        ctx.all_allows <- a :: ctx.all_allows;
        incr pushed)
    (Suppress.parse_attributes attrs);
  !pushed

let pop_allows ctx n =
  for _ = 1 to n do
    match ctx.allows with [] -> () | _ :: rest -> ctx.allows <- rest
  done

let has_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

(* Parse and activate [@lint.single_writer]; same scoping discipline as
   the allows stack. *)
let push_sws ctx (attrs : Parsetree.attributes) =
  let pushed = ref 0 in
  List.iter
    (fun parsed ->
      match parsed with
      | Suppress.Sw_malformed (msg, loc) ->
        error ctx ~loc ~rule:"lint/bad-allow" ~msg
      | Suppress.Sw s ->
        if Option.is_none s.sw_justification then
          error ctx ~loc:s.sw_loc ~rule:"lint/missing-justification"
            ~msg:"[@lint.single_writer] needs a justification string";
        ctx.sws <- s :: ctx.sws;
        ctx.all_sws <- s :: ctx.all_sws;
        incr pushed)
    (Suppress.parse_single_writers attrs);
  !pushed

let pop_sws ctx n =
  for _ = 1 to n do
    match ctx.sws with [] -> () | _ :: rest -> ctx.sws <- rest
  done

(* ------------------------------------------------------------------ *)
(* mt/*: scopes and ownership                                          *)
(* ------------------------------------------------------------------ *)

let scope_active ctx = match ctx.scopes with [] -> false | _ :: _ -> true
let cur_roots ctx = match ctx.scopes with [] -> [] | s :: _ -> s.roots
let cur_sid ctx = match ctx.scopes with [] -> -1 | s :: _ -> s.sid

let enter_scope ctx ~roots =
  let sid = ctx.next_sid in
  ctx.next_sid <- sid + 1;
  ctx.scopes <- { sid; roots } :: ctx.scopes

let exit_scope ctx =
  match ctx.scopes with [] -> () | _ :: rest -> ctx.scopes <- rest

(* record an ident's origin, keeping the strongest claim (idents are
   globally unique in a compilation unit, so no scoping is needed) *)
let register_origin ctx id o =
  match Hashtbl.find_opt ctx.origin id with
  | Some o0 when rank o0 >= rank o -> ()
  | _ -> Hashtbl.replace ctx.origin id o

(* The parameters a curried definition binds: this lambda's own, plus —
   through single-case chains — those of the next curried arguments
   (multi-case bodies are fresh closures, not further parameters).  An
   optional argument with a default desugars to a [let] between two
   lambdas of the chain; walk through it. *)
let rec chain_params e =
  Lint_compat.lambda_params e
  @
  match Lint_compat.lambda_bodies e with
  | Some (bodies, true) -> List.concat_map chain_params_body bodies
  | Some (_, false) | None -> []

and chain_params_body e =
  match e.exp_desc with
  | Texp_let (_, _, body) -> chain_params_body body
  | _ -> chain_params e

(* Ownership of an expression: the max rank over its mentions.  An
   Owned ident or a call to a declared shard-index function makes it
   Owned; a fresh mutable allocation or a Local mention makes it Local;
   otherwise it is Foreign. *)
let origin_of_expr ctx e =
  let best = ref Foreign in
  let up o = if rank o > rank !best then best := o in
  let expr_h sub ex =
    (match ex.exp_desc with
     | Texp_ident (Path.Pident id, _, _) -> (
       match Hashtbl.find_opt ctx.origin id with
       | Some o -> up o
       | None -> ())
     | Texp_apply (f, _) -> (
       match f.exp_desc with
       | Texp_ident (p, _, _) ->
         let n = norm_path p in
         if
           List.exists (name_matches n)
             (domain_index_builtin @ ctx.domain_index_names)
         then up Owned
         else if mem_match n local_alloc_names then up Local
       | _ -> ())
     | Texp_record _ | Texp_array _ -> up Local
     | _ -> ());
    if rank !best < rank Owned then Tast_iterator.default_iterator.expr sub ex
  in
  let it = { Tast_iterator.default_iterator with expr = expr_h } in
  it.expr it e;
  !best

(* Walk a write target down to its root: through record fields and
   indexed reads.  Returns the root, the root's ident node (so the read
   rule can skip it), whether any indexing was crossed, and whether any
   index on the path was owned (striped access). *)
let rec resolve_target ctx ex ~indexed ~owned_idx =
  match ex.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Some (`Ident id, ex, indexed, owned_idx)
  | Texp_ident (p, _, _) -> Some (`Path (norm_path p), ex, indexed, owned_idx)
  | Texp_field (e', _, _) -> resolve_target ctx e' ~indexed ~owned_idx
  | Texp_apply (f, args) -> (
    match f.exp_desc with
    | Texp_ident (p, _, _) when mem_match (norm_path p) index_get_names -> (
      let pos =
        List.filter_map
          (fun ((lbl : Asttypes.arg_label), a) ->
            match lbl with Nolabel -> a | Labelled _ | Optional _ -> None)
          args
      in
      match pos with
      | cont :: ie :: _ ->
        let oi = owned_idx || rank (origin_of_expr ctx ie) = rank Owned in
        resolve_target ctx cont ~indexed:true ~owned_idx:oi
      | _ -> None)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Closure analysis                                                    *)
(* ------------------------------------------------------------------ *)

let is_lambda e = Option.is_some (Lint_compat.lambda_bodies e)

(* Mark a lambda and, through single-case chains, the lambdas that are
   really just its further curried arguments, so only genuinely nested
   closures are flagged. *)
let rec peel_chain ctx e =
  ctx.peeled <- e :: ctx.peeled;
  match Lint_compat.lambda_bodies e with
  | Some (bodies, true) ->
    List.iter (fun b -> if is_lambda b then peel_chain ctx b) bodies
  | Some (_, false) | None -> ()

let lambda_captures ctx e =
  let used = Hashtbl.create 16 in
  let bound = Hashtbl.create 16 in
  let expr_hook sub ex =
    (match ex.exp_desc with
     | Texp_ident (Path.Pident id, _, _) -> Hashtbl.replace used id ()
     | Texp_let (Recursive, vbs, _) ->
       List.iter
         (fun id -> Hashtbl.replace bound id ())
         (let_bound_idents vbs)
     | _ -> ());
    Tast_iterator.default_iterator.expr sub ex
  in
  let pat_hook : 'k. Tast_iterator.iterator -> 'k general_pattern -> unit =
   fun sub p ->
    List.iter (fun id -> Hashtbl.replace bound id ()) (pat_bound_idents p);
    Tast_iterator.default_iterator.pat sub p
  in
  let it =
    { Tast_iterator.default_iterator with expr = expr_hook; pat = pat_hook }
  in
  it.expr it e;
  Hashtbl.fold
    (fun id () acc ->
      if
        Hashtbl.mem bound id
        || Hashtbl.mem ctx.globals id
        || Hashtbl.mem ctx.rec_ids id
      then acc
      else Ident.name id :: acc)
    used []
  |> List.sort_uniq String.compare

(* ------------------------------------------------------------------ *)
(* Per-identifier checks                                               *)
(* ------------------------------------------------------------------ *)

let check_ident ctx e path =
  let name = norm_path path in
  let loc = e.exp_loc in
  let in_lib = Lint_config.in_lib ctx.cfg ctx.file in
  (* determinism *)
  if in_lib then begin
    if mem_name name self_init_names then
      error ctx ~loc ~rule:"det/random-self-init"
        ~msg:(name ^ " seeds from the environment; use Prng with an explicit seed");
    if
      mem_name name wall_clock_names
      && not (Lint_config.in_realtime ctx.cfg ctx.file)
    then
      error ctx ~loc ~rule:"det/wall-clock"
        ~msg:(name ^ " reads the wall clock; simulated time must come from the engine");
    if
      mem_name name domain_spawn_names
      && not (Lint_config.in_parallel ctx.cfg ctx.file)
    then
      error ctx ~loc ~rule:"det/domain-spawn"
        ~msg:(name ^ " outside lib/parallel; use Barrier_team");
    if atomic_name name && not (Lint_config.in_parallel ctx.cfg ctx.file) then
      error ctx ~loc ~rule:"det/atomic"
        ~msg:
          (name
         ^ " outside lib/parallel; shard-confined plain state synchronized \
            at the window barrier is the concurrency discipline");
    if
      mem_name name hashtbl_order_names
      && Lint_config.in_hashtbl_det ctx.cfg ctx.file
    then
      error ctx ~loc ~rule:"det/hashtbl-order"
        ~msg:(name ^ " visits bindings in hash order; iterate a sorted key list instead")
  end;
  (* unsafe-op hygiene *)
  if in_lib && mem_name name unsafe_names then begin
    if ctx.bounds_depth = 0 then
      error ctx ~loc ~rule:"unsafe/array"
        ~msg:(name ^ " outside a [@@lint.bounds_checked] function")
    else if not (Lint_config.unsafe_allowed ctx.cfg ctx.file) then
      error ctx ~loc ~rule:"unsafe/file"
        ~msg:(name ^ " in a file not on the unsafe-op allowlist")
  end;
  (* allocation, only on the hot path *)
  if ctx.hot_depth > 0 then begin
    if mem_name name alloc_array_names then
      error ctx ~loc ~rule:"alloc/array"
        ~msg:(name ^ " allocates a fresh array on the hot path")
    else if mem_name name alloc_list_names then
      error ctx ~loc ~rule:"alloc/list"
        ~msg:(name ^ " allocates list cells on the hot path")
    else if mem_name name alloc_string_names then
      error ctx ~loc ~rule:"alloc/string"
        ~msg:(name ^ " builds a fresh string/bytes on the hot path")
    else if mem_name name alloc_ref_names then
      error ctx ~loc ~rule:"alloc/construct"
        ~msg:"ref allocates a mutable cell on the hot path"
  end;
  (* polymorphic compare *)
  if in_lib then begin
    let poly_rule =
      if mem_name name polycmp_equal_names then Some "polycmp/equal"
      else if mem_name name polycmp_order_names then Some "polycmp/compare"
      else if mem_name name polycmp_hash_names then Some "polycmp/hash"
      else None
    in
    match poly_rule with
    | None -> ()
    | Some rule -> begin
      match first_arg_type e.exp_type with
      | None -> ()
      | Some arg ->
        let env = env_of e in
        if not (head_is_scalar env arg ~fuel:8) then
          error ctx ~loc ~rule
            ~msg:
              (Printf.sprintf "polymorphic %s instantiated at type %s" name
                 (type_to_string arg))
    end
  end

(* ------------------------------------------------------------------ *)
(* mt/*: the shard-ownership checks                                    *)
(* ------------------------------------------------------------------ *)

let positional_args args =
  List.filter_map
    (fun ((lbl : Asttypes.arg_label), a) ->
      match lbl with Nolabel -> a | Labelled _ | Optional _ -> None)
    args

(* A write inside a domain-crossing scope.  Exempt when the path to the
   root crosses an owned (shard/pid-derived) index, or the root itself
   is owned or locally allocated.  Otherwise classify: a top-level
   mutable binding written by two or more distinct scopes is
   mt/shared-write; an indexed access with a foreign index is
   mt/stripe-index; anything else is mt/escape-mutable. *)
let check_write ctx ~loc ~what ~idx tgt =
  let idx_owned =
    match idx with
    | Some ie -> rank (origin_of_expr ctx ie) = rank Owned
    | None -> false
  in
  match resolve_target ctx tgt ~indexed:(Option.is_some idx) ~owned_idx:idx_owned with
  | None -> ()
  | Some (root, root_node, indexed, owned_idx) ->
    ctx.target_roots <- root_node :: ctx.target_roots;
    if not owned_idx then begin
      let origin_ok =
        match root with
        | `Ident id -> (
          match Hashtbl.find_opt ctx.origin id with
          | Some (Owned | Local) -> true
          | Some Foreign | None -> false)
        | `Path _ -> false
      in
      if not origin_ok then begin
        let key, is_global, disp =
          match root with
          | `Ident id ->
            (Ident.unique_name id, Hashtbl.mem ctx.globals id, Ident.name id)
          | `Path p -> (p, true, p)
        in
        if is_global then begin
          let l =
            match Hashtbl.find_opt ctx.gwrites key with
            | Some l -> l
            | None ->
              let l = ref [] in
              Hashtbl.replace ctx.gwrites key l;
              l
          in
          let sid = cur_sid ctx in
          if (not ctx.reporting) && not (List.mem sid !l) then l := sid :: !l
        end;
        if ctx.reporting then begin
          let nscopes =
            if is_global then
              match Hashtbl.find_opt ctx.gwrites key with
              | Some l -> List.length !l
              | None -> 0
            else 0
          in
          let rule, msg =
            if is_global && nscopes >= 2 then
              ( "mt/shared-write",
                Printf.sprintf
                  "%s: %d distinct domain-crossing scopes write the \
                   top-level mutable binding %s"
                  what nscopes disp )
            else if indexed then
              ( "mt/stripe-index",
                Printf.sprintf
                  "%s into %s: the index is not derived from this scope's \
                   shard/pid parameter"
                  what disp )
            else
              ( "mt/escape-mutable",
                Printf.sprintf
                  "%s: %s is allocated outside this domain-crossing scope; \
                   own it via a declared root, stripe it by the shard \
                   index, use Atomic, or justify [@lint.single_writer]"
                  what disp )
          in
          error ctx ~loc ~rule ~msg
        end
      end
    end

(* A plain read, inside a scope, of a top-level mutable binding that
   some scope writes non-owned: racy unless Atomic (Atomic reads go
   through Atomic.get, not a bare ident mention of a mutable global). *)
let check_scope_read ctx e id =
  if
    ctx.reporting
    && Hashtbl.mem ctx.mutable_globals id
    && (match Hashtbl.find_opt ctx.gwrites (Ident.unique_name id) with
        | Some { contents = _ :: _ } -> true
        | Some { contents = [] } | None -> false)
    && not (List.memq e ctx.target_roots)
  then
    error ctx ~loc:e.exp_loc ~rule:"mt/non-atomic-read"
      ~msg:
        (Printf.sprintf
           "read of top-level mutable %s, which a domain-crossing scope \
            also writes; use Atomic or confine it to one side of the \
            barrier"
           (Ident.name id))

let check_mt ctx e =
  if Lint_config.in_lib ctx.cfg ctx.file then begin
    (* mark closures handed to domain-crossing entry points *)
    (match e.exp_desc with
     | Texp_apply (f, args) -> (
       match f.exp_desc with
       | Texp_ident (p, _, _) -> (
         let n = norm_path p in
         match
           List.find_opt (fun (s, _) -> name_suffix n s) scope_call_specs
         with
         | Some (_, own) ->
           List.iter
             (fun (_, a) ->
               match a with
               | Some ae when is_lambda ae ->
                 ctx.scope_lambdas <- (ae, own) :: ctx.scope_lambdas
               | _ -> ())
             args
         | None -> ())
       | _ -> ())
     | _ -> ());
    if scope_active ctx then begin
      match e.exp_desc with
      | Texp_setfield (tgt, _, _, _) ->
        check_write ctx ~loc:e.exp_loc ~what:"field write" ~idx:None tgt
      | Texp_apply (f, args) -> (
        match f.exp_desc with
        | Texp_ident (p, _, _) -> (
          match find_mutator (norm_path p) with
          | Some (mname, ti, ii) -> (
            let pos = positional_args args in
            let idx = Option.bind ii (fun i -> List.nth_opt pos i) in
            match List.nth_opt pos ti with
            | Some tgt -> check_write ctx ~loc:e.exp_loc ~what:mname ~idx tgt
            | None -> ())
          | None -> ())
        | _ -> ())
      | Texp_match (scrut, cases, _) ->
        (* destructuring an owned/local value keeps its ownership *)
        let o = origin_of_expr ctx scrut in
        if rank o > rank Foreign then
          List.iter
            (fun c ->
              List.iter
                (fun id -> register_origin ctx id o)
                (pat_bound_idents c.c_lhs))
            cases
      | Texp_ident (Path.Pident id, _, _) -> check_scope_read ctx e id
      | _ -> ()
    end
  end

(* ------------------------------------------------------------------ *)
(* Expression / binding traversal                                      *)
(* ------------------------------------------------------------------ *)

let rec expr_hook ctx it e =
  let pushed = push_allows ctx e.exp_attributes in
  let pushed_sw = push_sws ctx e.exp_attributes in
  (* a lambda literal previously marked as the closure argument of a
     domain-crossing call becomes a scope here, covering its body *)
  let entered =
    match List.assq_opt e ctx.scope_lambdas with
    | Some own when Lint_config.in_lib ctx.cfg ctx.file ->
      enter_scope ctx ~roots:[];
      (match own with
       | `All ->
         List.iter (fun id -> register_origin ctx id Owned) (chain_params e)
       | `None -> ());
      true
    | Some _ | None -> false
  in
  (match e.exp_desc with
   | Texp_let (Recursive, vbs, _) ->
     List.iter
       (fun id -> Hashtbl.replace ctx.rec_ids id ())
       (let_bound_idents vbs)
   | _ -> ());
  check_mt ctx e;
  if is_lambda e && not (List.memq e ctx.peeled) then begin
    peel_chain ctx e;
    if ctx.hot_depth > 0 then begin
      match lambda_captures ctx e with
      | [] -> ()
      | captured ->
        error ctx ~loc:e.exp_loc ~rule:"alloc/closure"
          ~msg:
            ("closure capturing " ^ String.concat ", " captured
           ^ " allocates on the hot path")
    end
  end;
  (match e.exp_desc with
   | Texp_ident (path, _, _) -> check_ident ctx e path
   | _ when ctx.hot_depth = 0 -> ()
   | Texp_tuple _ ->
     error ctx ~loc:e.exp_loc ~rule:"alloc/tuple"
       ~msg:"tuple construction allocates on the hot path"
   | Texp_record _ ->
     error ctx ~loc:e.exp_loc ~rule:"alloc/record"
       ~msg:"record construction allocates on the hot path"
   | Texp_array _ ->
     error ctx ~loc:e.exp_loc ~rule:"alloc/array"
       ~msg:"array literal allocates on the hot path"
   | Texp_construct (_, cd, args) -> begin
     match args with
     | [] -> ()
     | _ :: _ ->
       error ctx ~loc:e.exp_loc ~rule:"alloc/construct"
         ~msg:(cd.Types.cstr_name ^ " application allocates on the hot path")
   end
   | Texp_variant (_, Some _) ->
     error ctx ~loc:e.exp_loc ~rule:"alloc/construct"
       ~msg:"polymorphic-variant application allocates on the hot path"
   | Texp_lazy _ ->
     error ctx ~loc:e.exp_loc ~rule:"alloc/construct"
       ~msg:"lazy suspension allocates on the hot path"
   | _ -> ());
  Tast_iterator.default_iterator.expr it e;
  if entered then exit_scope ctx;
  pop_sws ctx pushed_sw;
  pop_allows ctx pushed

and process_binding ctx it ~top vb =
  let name =
    match let_bound_idents [ vb ] with
    | [ id ] -> Ident.name id
    | _ -> ctx.top
  in
  let saved_top = ctx.top in
  if top then ctx.top <- name;
  let pushed = push_allows ctx vb.vb_attributes in
  let pushed_sw = push_sws ctx vb.vb_attributes in
  let in_lib = Lint_config.in_lib ctx.cfg ctx.file in
  (* a binding evaluated inside a scope: owned when named as one of the
     scope's roots, otherwise the ownership of its right-hand side *)
  if in_lib && scope_active ctx then begin
    let roots = cur_roots ctx in
    let o_rhs = lazy (origin_of_expr ctx vb.vb_expr) in
    List.iter
      (fun id ->
        let o =
          if mem_name (Ident.name id) roots then Owned else Lazy.force o_rhs
        in
        register_origin ctx id o)
      (let_bound_idents [ vb ])
  end;
  (* a declared domain-crossing scope: a floating
     [@@@lint.domain_scope "fn:root:..."] naming this binding, or the
     binding-attached [@@lint.domain_scope "root" ...] *)
  let mt_scope =
    if not in_lib then None
    else
      match Hashtbl.find_opt ctx.domain_scopes name with
      | Some roots -> Some roots
      | None ->
        List.find_map
          (fun (a : Parsetree.attribute) ->
            if String.equal a.attr_name.txt "lint.domain_scope" then begin
              match Suppress.strings_of_payload a.attr_payload with
              | Some roots -> Some roots
              | None ->
                error ctx ~loc:a.attr_loc ~rule:"lint/bad-allow"
                  ~msg:
                    "[@@lint.domain_scope] payload must be string literals \
                     naming owned roots";
                Some []
            end
            else None)
          vb.vb_attributes
  in
  (match mt_scope with
   | Some roots ->
     enter_scope ctx ~roots;
     List.iter
       (fun id ->
         if mem_name (Ident.name id) roots then register_origin ctx id Owned)
       (chain_params vb.vb_expr)
   | None -> ());
  let is_hot =
    has_attr "lint.zero_alloc_hot" vb.vb_attributes
    || (top && (ctx.hot_module || mem_name name ctx.hot_names))
  in
  let is_bounds = has_attr "lint.bounds_checked" vb.vb_attributes in
  if is_hot then ctx.hot_depth <- ctx.hot_depth + 1;
  if is_bounds then ctx.bounds_depth <- ctx.bounds_depth + 1;
  if is_hot && is_function_type vb.vb_pat.pat_type then begin
    let res = result_type vb.vb_pat.pat_type in
    let env = env_of vb.vb_expr in
    let is_float =
      match Types.get_desc res with
      | Tconstr (p, _, _) ->
        Path.same p Predef.path_float
        || begin
          match Ctype.expand_head env res with
          | res' -> begin
            match Types.get_desc res' with
            | Tconstr (p', _, _) -> Path.same p' Predef.path_float
            | _ -> false
          end
          | exception _ -> false
        end
      | _ -> false
    in
    if is_float then
      error ctx ~loc:vb.vb_loc ~rule:"alloc/boxed-float"
        ~msg:(name ^ " returns float; the result is boxed on every call")
  end;
  (* the outermost lambda chain of a top-level binding is the function
     itself, not a per-call closure *)
  if top && is_lambda vb.vb_expr then peel_chain ctx vb.vb_expr;
  expr_hook ctx it vb.vb_expr;
  if is_hot then ctx.hot_depth <- ctx.hot_depth - 1;
  if is_bounds then ctx.bounds_depth <- ctx.bounds_depth - 1;
  (match mt_scope with Some _ -> exit_scope ctx | None -> ());
  pop_sws ctx pushed_sw;
  pop_allows ctx pushed;
  if not top then ctx.top <- saved_top

(* the RHS shapes that make a top-level binding a mutable global for
   mt/shared-write and mt/non-atomic-read *)
let rec is_mutable_alloc (e : expression) =
  match e.exp_desc with
  | Texp_array _ -> true
  | Texp_record { fields; _ } ->
    Array.exists
      (fun ((lbl : Types.label_description), _) ->
        match lbl.lbl_mut with Asttypes.Mutable -> true | Asttypes.Immutable -> false)
      fields
  | Texp_apply (f, _) -> (
    match f.exp_desc with
    | Texp_ident (p, _, _) -> mem_match (norm_path p) local_alloc_names
    | _ -> false)
  | Texp_let (_, _, body) | Texp_sequence (_, body) -> is_mutable_alloc body
  | _ -> false

(* Floating [@@@lint.zero_alloc_hot] / file-scoped [@@@lint.allow]: the
   pre-pass collects them wherever they appear so placement is free.
   Likewise [@@@lint.domain_scope "fn:root:..."] (declare a named
   function as a domain-crossing scope with the given owned roots) and
   [@@@lint.domain_index "fn" ...] (declare functions whose result is
   the executing shard/pid index). *)
let pre_pass ctx (str : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_attribute attr ->
        let attr_name = attr.Parsetree.attr_name.txt in
        if String.equal attr_name "lint.zero_alloc_hot" then begin
          match Suppress.strings_of_payload attr.Parsetree.attr_payload with
          | Some [] -> ctx.hot_module <- true
          | Some names -> ctx.hot_names <- names @ ctx.hot_names
          | None ->
            error ctx ~loc:attr.Parsetree.attr_loc ~rule:"lint/bad-allow"
              ~msg:
                "[@@@lint.zero_alloc_hot] payload must be function-name \
                 string literals"
        end
        else if String.equal attr_name "lint.domain_scope" then begin
          match Suppress.strings_of_payload attr.Parsetree.attr_payload with
          | Some ((_ :: _) as specs) ->
            List.iter
              (fun spec ->
                match String.split_on_char ':' spec with
                | fname :: roots when String.length fname > 0 ->
                  Hashtbl.replace ctx.domain_scopes fname roots
                | _ ->
                  error ctx ~loc:attr.Parsetree.attr_loc ~rule:"lint/bad-allow"
                    ~msg:
                      (Printf.sprintf
                         "[@@@lint.domain_scope] entry %S: expected \
                          \"function\" or \"function:root:...\""
                         spec))
              specs
          | Some [] | None ->
            error ctx ~loc:attr.Parsetree.attr_loc ~rule:"lint/bad-allow"
              ~msg:
                "[@@@lint.domain_scope] payload must be \
                 \"function:root:...\" string literals"
        end
        else if String.equal attr_name "lint.domain_index" then begin
          match Suppress.strings_of_payload attr.Parsetree.attr_payload with
          | Some ((_ :: _) as names) ->
            ctx.domain_index_names <- names @ ctx.domain_index_names
          | Some [] | None ->
            error ctx ~loc:attr.Parsetree.attr_loc ~rule:"lint/bad-allow"
              ~msg:
                "[@@@lint.domain_index] payload must be function-name \
                 string literals"
        end
        else if String.equal attr_name "lint.allow" then
          ignore (push_allows ctx [ attr ])
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let ids = let_bound_idents [ vb ] in
            List.iter (fun id -> Hashtbl.replace ctx.globals id ()) ids;
            if is_mutable_alloc vb.vb_expr then
              List.iter
                (fun id -> Hashtbl.replace ctx.mutable_globals id ())
                ids)
          vbs
      | _ -> ())
    str.str_items

(* Two passes over the same tree share [gwrites]: the first collects
   which scopes write each top-level mutable binding (mt/shared-write
   needs the whole unit before any site can be classified, and
   mt/non-atomic-read needs to know a write exists at all); the second
   reports.  Scope ids are stable because both passes traverse in the
   same order. *)
let scan_structure ~cfg ~file (str : structure) =
  let gwrites = Hashtbl.create 16 in
  let run_pass ~reporting =
    let ctx =
      {
        cfg;
        file;
        top = "<toplevel>";
        findings = [];
        suppressed = [];
        allows = [];
        all_allows = [];
        hot_module = false;
        hot_names = [];
        hot_depth = 0;
        bounds_depth = 0;
        globals = Hashtbl.create 64;
        rec_ids = Hashtbl.create 16;
        peeled = [];
        reporting;
        gwrites;
        scopes = [];
        next_sid = 0;
        scope_lambdas = [];
        origin = Hashtbl.create 64;
        target_roots = [];
        domain_scopes = Hashtbl.create 8;
        domain_index_names = [];
        sws = [];
        all_sws = [];
        mutable_globals = Hashtbl.create 16;
      }
    in
    pre_pass ctx str;
    let it = ref Tast_iterator.default_iterator in
    let structure_item sub (item : structure_item) =
      match item.str_desc with
      | Tstr_value (rf, vbs) ->
        (match rf with
         | Recursive ->
           List.iter
             (fun id -> Hashtbl.replace ctx.rec_ids id ())
             (let_bound_idents vbs)
         | Nonrecursive -> ());
        List.iter (fun vb -> process_binding ctx sub ~top:true vb) vbs
      | Tstr_attribute _ -> ()  (* handled by the pre-pass *)
      | _ -> Tast_iterator.default_iterator.structure_item sub item
    in
    it :=
      {
        Tast_iterator.default_iterator with
        structure_item;
        expr = (fun sub e -> expr_hook ctx sub e);
        value_binding = (fun sub vb -> process_binding ctx sub ~top:false vb);
      };
    !it.structure !it str;
    ctx
  in
  ignore (run_pass ~reporting:false);
  let ctx = run_pass ~reporting:true in
  (* justified allows that silenced nothing are themselves suspicious *)
  List.iter
    (fun (a : Suppress.allow) ->
      if Option.is_some a.justification && not a.used then begin
        let line, col = loc_pos a.loc in
        ctx.findings <-
          {
            Finding.rule = "lint/unused-allow";
            severity = Finding.Warning;
            file = ctx.file;
            line;
            col;
            context = "<attribute>";
            message =
              Printf.sprintf "[@lint.allow \"%s\"] suppresses nothing" a.rule;
          }
          :: ctx.findings
      end)
    ctx.all_allows;
  List.iter
    (fun (s : Suppress.single_writer) ->
      if Option.is_some s.sw_justification && not s.sw_used then begin
        let line, col = loc_pos s.sw_loc in
        ctx.findings <-
          {
            Finding.rule = "lint/unused-allow";
            severity = Finding.Warning;
            file = ctx.file;
            line;
            col;
            context = "<attribute>";
            message = "[@lint.single_writer] suppresses nothing";
          }
          :: ctx.findings
      end)
    ctx.all_sws;
  {
    findings = Finding.sort ctx.findings;
    suppressed =
      List.sort
        (fun (a, _) (b, _) -> Finding.compare_by_site a b)
        ctx.suppressed;
  }

(* ------------------------------------------------------------------ *)
(* Cmt entry points                                                    *)
(* ------------------------------------------------------------------ *)

let source_of_cmt (cmt : Cmt_format.cmt_infos) ~cmt_path =
  let raw =
    match cmt.cmt_sourcefile with
    | Some f -> f
    | None -> Filename.basename cmt_path
  in
  let raw = Lint_config.normalize_path raw in
  (* strip any build prefix so scope matching sees lib/...; the compiler
     usually records the path relative to the build root already *)
  let marker = "_build/default/" in
  let mlen = String.length marker in
  let rec find i =
    if i + mlen > String.length raw then raw
    else if String.equal (String.sub raw i mlen) marker then
      String.sub raw (i + mlen) (String.length raw - i - mlen)
    else find (i + 1)
  in
  find 0

type cmt_result =
  | Scanned of string * scan  (* source path, results *)
  | Skipped of string  (* warning *)

let scan_cmt ~cfg cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception exn ->
    Skipped
      (Printf.sprintf "lint: cannot read %s (%s); skipped" cmt_path
         (Printexc.to_string exn))
  | cmt -> begin
    match cmt.cmt_annots with
    | Implementation str ->
      let file = source_of_cmt cmt ~cmt_path in
      Scanned (file, scan_structure ~cfg ~file str)
    | _ -> Skipped (Printf.sprintf "lint: %s is not an implementation; skipped" cmt_path)
  end
