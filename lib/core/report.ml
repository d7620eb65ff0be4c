let format_cost = function
  | Some c ->
    if Float.abs c >= 10_000. then Printf.sprintf "%.3gk" (c /. 1000.)
    else Printf.sprintf "%.4g" c
  | None -> "-"

(* Each column of a figure — class bounds, then deployed heuristics — as
   its label and its cost at every point, [None] where the goal cannot be
   met. *)
let columns (fig : Figure.t) =
  List.map
    (fun (b : Figure.bound) ->
      ( b.Figure.label,
        List.map
          (fun (c : Bounds.Pipeline.t Figure.cell) ->
            let r = c.Figure.value in
            if r.Bounds.Pipeline.feasible then Some r.Bounds.Pipeline.lower_bound
            else None)
          b.Figure.cells ))
    fig.Figure.bounds
  @ List.map
      (fun (d : Figure.deployed) ->
        ( d.Figure.heuristic,
          List.map
            (fun (c : Sim.Runner.deployed option Figure.cell) ->
              Option.map (fun (r : Sim.Runner.deployed) -> r.Sim.Runner.cost)
                c.Figure.value)
            d.Figure.outcomes ))
      fig.Figure.deployed

let print_figure ?(oc = stdout) (fig : Figure.t) =
  let columns = columns fig in
  Printf.fprintf oc "\n=== %s ===\n" fig.Figure.decl.Figure.title;
  let col_width =
    List.fold_left (fun acc (label, _) -> max acc (String.length label)) 12
      columns
    + 2
  in
  let pad s = Printf.sprintf "%-*s" col_width s in
  Printf.fprintf oc "%-12s" "QoS";
  List.iter (fun (label, _) -> output_string oc (pad label)) columns;
  output_char oc '\n';
  List.iteri
    (fun i x ->
      Printf.fprintf oc "%-12.5g" x;
      List.iter
        (fun (_, costs) -> output_string oc (pad (format_cost (List.nth costs i))))
        columns;
      output_char oc '\n')
    fig.Figure.decl.Figure.points;
  flush oc

let print_selection ?(oc = stdout) ~title (sel : Methodology.selection) =
  Printf.fprintf oc "\n=== %s ===\n" title;
  Printf.fprintf oc "general lower bound: %.1f\n" sel.Methodology.general_bound;
  List.iter
    (fun (r : Methodology.ranked) ->
      let b = r.Methodology.result in
      if b.Bounds.Pipeline.feasible then
        Printf.fprintf oc "  %-34s bound %12.1f%s%s\n"
          b.Bounds.Pipeline.class_name b.Bounds.Pipeline.lower_bound
          (match b.Bounds.Pipeline.gap with
          | Some g -> Printf.sprintf "  (rounding gap %4.1f%%)" (100. *. g)
          | None -> "")
          (match r.Methodology.deployable with
          | Some h -> Printf.sprintf "  -> deploy %s" h
          | None -> "")
      else
        Printf.fprintf oc "  %-34s infeasible (max QoS %.5f)\n"
          b.Bounds.Pipeline.class_name b.Bounds.Pipeline.max_feasible_qos)
    sel.Methodology.ranking;
  (match sel.Methodology.chosen with
  | Some c ->
    Printf.fprintf oc "chosen class: %s%s\n"
      c.Methodology.result.Bounds.Pipeline.class_name
      (if sel.Methodology.near_general then
         " (close to the general bound: no class can do much better)"
       else " (note: far from the general bound; consider other classes)")
  | None -> Printf.fprintf oc "no feasible class\n");
  flush oc

let print_deployment ?(oc = stdout) (d : Methodology.deployment) =
  Printf.fprintf oc "\n=== deployment plan ===\n";
  Printf.fprintf oc "open nodes (%d): %s\n"
    (List.length d.Methodology.open_nodes)
    (String.concat ", " (List.map string_of_int d.Methodology.open_nodes));
  Printf.fprintf oc "phase-1 bound (incl. opening costs): %.1f\n"
    d.Methodology.phase1_bound;
  Printf.fprintf oc "site assignment: %s\n"
    (String.concat ", "
       (Array.to_list
          (Array.mapi (fun n a -> Printf.sprintf "%d->%d" n a)
             d.Methodology.assignment)));
  flush oc

let print_timing ?(oc = stdout) ~jobs (fig : Figure.t) =
  let rows =
    List.concat_map
      (fun (b : Figure.bound) ->
        List.map
          (fun (c : Bounds.Pipeline.t Figure.cell) ->
            let r = c.Figure.value in
            ( b.Figure.label,
              c.Figure.fraction,
              c.Figure.wall_s,
              r.Bounds.Pipeline.lp_iterations,
              Bounds.Pipeline.path_label r.Bounds.Pipeline.solve_path,
              Bounds.Pipeline.quality_label r.Bounds.Pipeline.quality ))
          b.Figure.cells)
      fig.Figure.bounds
    @ List.concat_map
        (fun (d : Figure.deployed) ->
          List.map
            (fun (c : Sim.Runner.deployed option Figure.cell) ->
              (d.Figure.heuristic, c.Figure.fraction, c.Figure.wall_s, 0, "sim", "-"))
            d.Figure.outcomes)
        fig.Figure.deployed
  in
  let elapsed_s =
    List.fold_left
      (fun acc (d : Figure.deployed) ->
        acc +. d.Figure.deploy_sweep.Figure.elapsed_s)
      fig.Figure.bound_sweep.Figure.elapsed_s fig.Figure.deployed
  in
  Printf.fprintf oc "\n--- sweep timing: %s ---\n" fig.Figure.decl.Figure.timing_title;
  let col_width =
    List.fold_left
      (fun acc (task, _, _, _, _, _) -> max acc (String.length task))
      12 rows
    + 2
  in
  Printf.fprintf oc "%-*s %-10s %10s %10s  %-16s %s\n" col_width "task" "x"
    "wall(s)" "iters" "solver" "quality";
  List.iter
    (fun (task, x, wall_s, iterations, solver, quality) ->
      Printf.fprintf oc "%-*s %-10.5g %10.3f %10d  %-16s %s\n" col_width task
        x wall_s iterations solver quality)
    rows;
  let total = List.fold_left (fun acc (_, _, w, _, _, _) -> acc +. w) 0. rows in
  Printf.fprintf oc
    "%d tasks  task-wall %.2fs  elapsed %.2fs  speedup %.2fx  jobs %d\n"
    (List.length rows) total elapsed_s
    (if elapsed_s > 0. then total /. elapsed_s else 1.)
    jobs;
  flush oc

let csv_of_figure fig =
  let columns = columns fig in
  let line fields = String.concat "," fields ^ "\n" in
  line ("qos" :: List.map fst columns)
  ^ String.concat ""
      (List.mapi
         (fun i x ->
           line
             (Printf.sprintf "%.6g" x
             :: List.map
                  (fun (_, costs) ->
                    match List.nth costs i with
                    | Some c -> Printf.sprintf "%.6g" c
                    | None -> "")
                  columns))
         fig.Figure.decl.Figure.points)
