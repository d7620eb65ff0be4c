(* Tests for the scale machinery: object bundling (Mcperf.Bundle), the
   bundled Lagrangian decomposition, and the CDN scale scenario
   family. *)

module SS = Replica_select.Scale_scenario

let small_scen ?(seed = 7) ?(objects = 60) () =
  SS.make ~seed ~fanouts:[ 2; 3 ] ~objects ()

let small_spec ?seed ?objects ?(fraction = 0.95) () =
  SS.qos_spec (small_scen ?seed ?objects ()) ~fraction

(* --- the scenario family ------------------------------------------------ *)

let test_scenario_shape () =
  let scen = small_scen () in
  Alcotest.(check int) "nodes" 9 (SS.node_count scen);
  Alcotest.(check int) "leaves" 6 scen.SS.leaves;
  Alcotest.(check int) "objects" 60 (SS.object_count scen);
  (* Weights are all 1: the family is homogeneous by construction. *)
  Array.iter
    (fun w -> Alcotest.(check (float 0.)) "unit weight" 1. w)
    scen.SS.demand.Workload.Demand.weight

let test_scenario_deterministic () =
  let d1 = (small_scen ()).SS.demand and d2 = (small_scen ()).SS.demand in
  Alcotest.(check bool)
    "same demand" true
    (Marshal.to_string d1 [ Marshal.No_sharing ]
    = Marshal.to_string d2 [ Marshal.No_sharing ])

(* --- bundling ----------------------------------------------------------- *)

let bundle_of_spec spec =
  Mcperf.Bundle.compute (Mcperf.Permission.compute spec Mcperf.Classes.general)

let test_bundle_collapses () =
  let b = bundle_of_spec (small_spec ()) in
  Alcotest.(check int) "covers all objects" 60 b.Mcperf.Bundle.objects;
  Alcotest.(check bool)
    "strictly fewer bundles" true
    (b.Mcperf.Bundle.count < b.Mcperf.Bundle.objects);
  Alcotest.(check bool) "ratio > 1" true (Mcperf.Bundle.ratio b > 1.);
  (* Homogeneous weights: every member is exact, nothing is rescaled. *)
  Alcotest.(check int) "no rescaled members" 0 b.Mcperf.Bundle.rescaled;
  Array.iter
    (fun e -> Alcotest.(check bool) "exact member" true e)
    b.Mcperf.Bundle.exact_member;
  (* Structural consistency: representatives name their own bundle, and
     every member maps to a live bundle. *)
  Array.iteri
    (fun i rep ->
      Alcotest.(check int) "rep in own bundle" i b.Mcperf.Bundle.bundle_of.(rep))
    b.Mcperf.Bundle.representative;
  Array.iter
    (fun bi ->
      Alcotest.(check bool)
        "bundle id in range" true
        (bi >= 0 && bi < b.Mcperf.Bundle.count))
    b.Mcperf.Bundle.bundle_of

let test_bundle_trivial_is_identity () =
  let spec = small_spec () in
  let b =
    Mcperf.Bundle.trivial (Mcperf.Permission.compute spec Mcperf.Classes.general)
  in
  Alcotest.(check int) "one bundle per object" b.Mcperf.Bundle.objects
    b.Mcperf.Bundle.count;
  Alcotest.(check (float 0.)) "ratio 1" 1. (Mcperf.Bundle.ratio b);
  Array.iteri
    (fun k rep -> Alcotest.(check int) "identity" k rep)
    b.Mcperf.Bundle.representative

(* --- bundling exactness (homogeneous) ----------------------------------- *)

let test_bundled_equals_unbundled_exactly () =
  (* The scale family is homogeneous, so the bundled bound must equal
     the forced-unbundled one bit for bit, at every iteration budget and
     under both step rules. *)
  List.iter
    (fun rule ->
      List.iter
        (fun iters ->
          let spec = small_spec () in
          let b =
            Bounds.Lagrangian.bound ~iterations:iters ~step_rule:rule spec
              Mcperf.Classes.general
          in
          let u =
            Bounds.Lagrangian.bound ~iterations:iters ~step_rule:rule
              ~bundling:false spec Mcperf.Classes.general
          in
          Alcotest.(check bool)
            "bit-identical bound" true
            (b.Bounds.Lagrangian.bound = u.Bounds.Lagrangian.bound);
          Alcotest.(check bool)
            "bundling engaged" true
            (b.Bounds.Lagrangian.bundles < b.Bounds.Lagrangian.objects))
        [ 5; 25 ])
    [ Bounds.Lagrangian.Harmonic; Bounds.Lagrangian.Adaptive ]

(* --- bundling equivalence ------------------------------------------------- *)

(* Objects drawn from ten read patterns, so most have exact duplicates:
   five random ones and, for each, a near-duplicate whose first cell
   reads twice as often. Weights are all 1 or drawn from {1, 2, 3.5}. *)
let duplicate_spec ~seed ~hetero =
  let scen = small_scen ~seed () in
  let nodes = SS.node_count scen in
  let rng = Util.Prng.create ~seed:(seed + 29) in
  let intervals = 3 in
  let pattern () =
    let cells = ref [] in
    for i = 0 to intervals - 1 do
      for n = 0 to nodes - 1 do
        if Util.Prng.float rng 1. < 0.15 then
          cells :=
            {
              Workload.Demand.node = n;
              interval = i;
              count = [| 1.; 2.; 3.5 |].(Util.Prng.int rng 3);
            }
            :: !cells
      done
    done;
    Array.of_list (List.rev !cells)
  in
  let random = Array.init 5 (fun _ -> pattern ()) in
  random.(0) <-
    [| { Workload.Demand.node = nodes - 1; interval = 0; count = 1. } |];
  let doubled cells =
    Array.mapi
      (fun i (c : Workload.Demand.cell) ->
        if i = 0 then { c with count = 2. *. c.count } else c)
      cells
  in
  let patterns = Array.append random (Array.map doubled random) in
  let objects = 60 in
  let reads =
    Array.init objects (fun k ->
        if k < Array.length patterns then patterns.(k)
        else patterns.(Util.Prng.int rng (Array.length patterns)))
  in
  let weight =
    Array.init objects (fun _ ->
        if hetero then [| 1.; 2.; 3.5 |].(Util.Prng.int rng 3) else 1.)
  in
  let demand =
    Workload.Demand.create ~nodes ~intervals ~interval_s:3600. ~weight ~reads
      ()
  in
  Mcperf.Spec.make ~system:scen.SS.system ~demand
    ~goal:(Mcperf.Spec.Qos { tlat_ms = SS.default_tlat_ms; fraction = 0.95 })
    ()

(* The bundling by definition: compare every object's full mask columns
   and read cells with each earlier representative's, pairwise. *)
let naive_bundle (perm : Mcperf.Permission.t) =
  let spec = perm.Mcperf.Permission.spec in
  let nodes = Mcperf.Spec.node_count spec in
  let objects = Mcperf.Spec.object_count spec in
  let demand = spec.Mcperf.Spec.demand in
  let weight = demand.Workload.Demand.weight in
  let key k =
    ( Array.init nodes (fun m -> perm.Mcperf.Permission.store_mask.(m).(k)),
      Array.init nodes (fun m -> perm.Mcperf.Permission.create_mask.(m).(k)),
      demand.Workload.Demand.reads.(k) )
  in
  let reps = ref [] in
  let bundle_of =
    Array.init objects (fun k ->
        match List.find_opt (fun (r, _) -> key r = key k) !reps with
        | Some (_, b) -> b
        | None ->
          let b = List.length !reps in
          reps := !reps @ [ (k, b) ];
          b)
  in
  let representative = Array.of_list (List.map fst !reps) in
  let exact_member =
    Array.init objects (fun k ->
        weight.(k) = weight.(representative.(bundle_of.(k))))
  in
  {
    Mcperf.Bundle.objects;
    count = Array.length representative;
    representative;
    bundle_of;
    exact_member;
    rescaled =
      Array.fold_left (fun n e -> if e then n else n + 1) 0 exact_member;
  }

let prop_bundle_matches_naive =
  QCheck2.Test.make ~count:40
    ~name:"bundling = naive pairwise grouping on duplicate-heavy instances"
    QCheck2.Gen.(pair (int_range 0 100_000) bool)
    (fun (seed, hetero) ->
      let spec = duplicate_spec ~seed ~hetero in
      List.for_all
        (fun cls ->
          let perm = Mcperf.Permission.compute spec cls in
          let b = Mcperf.Bundle.compute perm in
          b = naive_bundle perm
          && b.Mcperf.Bundle.count < b.Mcperf.Bundle.objects)
        [ Mcperf.Classes.general; Mcperf.Classes.caching ])

(* --- bundling validity (heterogeneous weights) --------------------------- *)

(* Identical read patterns under different multiplicity weights: members
   of a bundle disagree on weight, so the guarded-rescale fallback
   engages. The rescaled bound must stay a valid lower bound on the
   exact LP optimum. *)
let hetero_spec ~seed () =
  let scen = small_scen ~seed () in
  let nodes = SS.node_count scen in
  let rng = Util.Prng.create ~seed:(seed + 11) in
  let objects = 24 in
  let patterns =
    Array.init 6 (fun _ ->
        let leaf = nodes - 1 - Util.Prng.int rng 6 in
        [| { Workload.Demand.node = leaf; interval = 0; count = 2. } |])
  in
  let reads = Array.init objects (fun k -> patterns.(k mod 6)) in
  let weight =
    Array.init objects (fun _ ->
        [| 1.0; 2.0; 3.5 |].(Util.Prng.int rng 3))
  in
  let demand =
    Workload.Demand.create ~nodes ~intervals:1 ~interval_s:3600. ~weight
      ~reads ()
  in
  Mcperf.Spec.make ~system:scen.SS.system ~demand
    ~goal:(Mcperf.Spec.Qos { tlat_ms = SS.default_tlat_ms; fraction = 0.95 })
    ()

let prop_hetero_bundled_below_lp =
  QCheck2.Test.make ~count:15
    ~name:"heterogeneous bundling: guarded rescale stays below LP optimum"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let spec = hetero_spec ~seed () in
      let cls = Mcperf.Classes.general in
      let perm = Mcperf.Permission.compute spec cls in
      if not (Mcperf.Permission.feasible perm) then true
      else begin
        let model = Mcperf.Model.build perm in
        match Lp.Simplex.solve model.Mcperf.Model.problem with
        | Lp.Simplex.Optimal { objective = lp; _ } ->
          let b = Bounds.Lagrangian.bound ~iterations:30 spec cls in
          let u =
            Bounds.Lagrangian.bound ~iterations:30 ~bundling:false spec cls
          in
          (* weights differ inside bundles, so the fallback must engage *)
          b.Bounds.Lagrangian.rescaled_members > 0
          && b.Bounds.Lagrangian.bound <= lp +. 1e-5
          && u.Bounds.Lagrangian.bound <= lp +. 1e-5
        | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> false
      end)

(* --- monotone dual bound under both step rules --------------------------- *)

(* Both step rules depend only on the trajectory so far, so a longer
   budget replays the shorter run's iterations exactly and the reported
   best bound can only improve. *)
let prop_bound_monotone_in_iterations =
  QCheck2.Test.make ~count:10
    ~name:"dual bound monotone nondecreasing in the iteration budget"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 15))
    (fun (seed, base_iters) ->
      let spec = small_spec ~seed:(seed + 3) ~objects:30 () in
      List.for_all
        (fun rule ->
          let bound_at iters =
            (Bounds.Lagrangian.bound ~iterations:iters ~step_rule:rule spec
               Mcperf.Classes.general)
              .Bounds.Lagrangian.bound
          in
          let b1 = bound_at base_iters in
          let b2 = bound_at (base_iters * 2) in
          let b3 = bound_at ((base_iters * 2) + 7) in
          b1 <= b2 && b2 <= b3)
        [ Bounds.Lagrangian.Harmonic; Bounds.Lagrangian.Adaptive ])

(* --- pinned sweep ---------------------------------------------------------- *)

(* The sweep's outcomes (bounds, multipliers, solve counts, bundling)
   marshaled without sharing, pinned against an earlier build: the
   sequential batch solve must reproduce them bit for bit. *)
let test_sweep_pinned () =
  let sweep =
    Bounds.Lagrangian.sweep ~iterations:20 (small_spec ())
      Mcperf.Classes.general ~fractions:[ 0.9; 0.95; 0.99 ]
  in
  Alcotest.(check string)
    "sweep digest" "756bf6bdf42d2c2bebf4e745e2eb1c92"
    (Digest.to_hex
       (Digest.string (Marshal.to_string sweep [ Marshal.No_sharing ])))

let at_fraction spec fraction =
  {
    spec with
    Mcperf.Spec.goal =
      Mcperf.Spec.Qos { tlat_ms = SS.default_tlat_ms; fraction };
  }

let test_sweep_matches_pointwise_bound () =
  (* The sweep shares the bundling and subproblem models across points;
     each point must still equal an independent [bound] call. *)
  let spec = small_spec () in
  let sweep =
    Bounds.Lagrangian.sweep ~iterations:20 spec Mcperf.Classes.general
      ~fractions:[ 0.9; 0.99 ]
  in
  List.iter
    (fun (q, (out : Bounds.Lagrangian.outcome)) ->
      let solo =
        Bounds.Lagrangian.bound ~iterations:20 (at_fraction spec q)
          Mcperf.Classes.general
      in
      Alcotest.(check bool)
        "sweep point = solo bound" true
        (out.Bounds.Lagrangian.bound = solo.Bounds.Lagrangian.bound))
    sweep

(* --- pinned pointwise outcomes ---------------------------------------------- *)

(* Whole [bound] outcomes, one "label md5" line each in
   fixtures/lagrangian_outcomes.golden, pinned against an earlier build:
   both step rules, bundled and unbundled, on the homogeneous and the
   heterogeneous-weight instance at two fractions. The MD5 is taken over
   the outcome marshaled without sharing, so a change to the bound, the
   multipliers, the solve counts or the bundling shows. *)
let lagrangian_outcomes () =
  List.concat_map
    (fun (inst, spec) ->
      List.concat_map
        (fun (rule_name, step_rule) ->
          List.concat_map
            (fun bundling ->
              List.map
                (fun fraction ->
                  let out =
                    Bounds.Lagrangian.bound ~iterations:20 ~step_rule ~bundling
                      (at_fraction spec fraction) Mcperf.Classes.general
                  in
                  ( Printf.sprintf "%s/%s/%s@%g" inst rule_name
                      (if bundling then "bundled" else "unbundled")
                      fraction,
                    Digest.to_hex
                      (Digest.string
                         (Marshal.to_string out [ Marshal.No_sharing ])) ))
                [ 0.9; 0.99 ])
            [ true; false ])
        [
          ("harmonic", Bounds.Lagrangian.Harmonic);
          ("adaptive", Bounds.Lagrangian.Adaptive);
        ])
    [
      ("homogeneous", small_spec ());
      ("heterogeneous-seed3", hetero_spec ~seed:3 ());
    ]

let read_golden path =
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | line -> (
      match String.split_on_char ' ' line with
      | [ label; md5 ] -> read ((label, md5) :: acc)
      | _ -> Alcotest.failf "malformed golden line %S" line)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  read []

let test_outcomes_pinned () =
  Alcotest.(check (list (pair string string)))
    "every outcome matches its pinned digest"
    (read_golden "fixtures/lagrangian_outcomes.golden")
    (lagrangian_outcomes ())

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [ prop_hetero_bundled_below_lp; prop_bound_monotone_in_iterations ]
  in
  Alcotest.run "scale"
    [
      ( "scenario",
        [
          Alcotest.test_case "shape" `Quick test_scenario_shape;
          Alcotest.test_case "deterministic" `Quick
            test_scenario_deterministic;
        ] );
      ( "bundle",
        [
          Alcotest.test_case "collapses homogeneous tail" `Quick
            test_bundle_collapses;
          Alcotest.test_case "trivial is identity" `Quick
            test_bundle_trivial_is_identity;
          QCheck_alcotest.to_alcotest prop_bundle_matches_naive;
        ] );
      ( "lagrangian",
        [
          Alcotest.test_case "bundled = unbundled bit-for-bit" `Quick
            test_bundled_equals_unbundled_exactly;
          Alcotest.test_case "sweep matches pinned digest" `Quick
            test_sweep_pinned;
          Alcotest.test_case "sweep = pointwise bounds" `Quick
            test_sweep_matches_pointwise_bound;
          Alcotest.test_case "bound outcomes match pinned digests" `Quick
            test_outcomes_pinned;
        ] );
      ("properties", props);
    ]
