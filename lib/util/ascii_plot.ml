type series = { label : string; points : (float * float) list }

let markers = [| '*'; 'o'; '+'; 'x'; '#'; '@' |]

let render ?(width = 64) ?(height = 16) ?(x_label = "") ~title series =
  let all_points = List.concat_map (fun s -> s.points) series in
  if all_points = [] then title ^ "\n(no data)\n"
  else begin
    let xs = List.map fst all_points and ys = List.map snd all_points in
    let xmin = List.fold_left min (List.hd xs) xs in
    let xmax = List.fold_left max (List.hd xs) xs in
    let ymin = List.fold_left min (List.hd ys) ys in
    let ymax = List.fold_left max (List.hd ys) ys in
    let ymin = min ymin 0.0 in
    let xspan = if xmax = xmin then 1.0 else xmax -. xmin in
    let yspan = if ymax = ymin then 1.0 else ymax -. ymin in
    let grid = Array.make_matrix height width ' ' in
    let plot_series idx s =
      let marker = markers.(idx mod Array.length markers) in
      (* Draw line segments between consecutive points so sparse series
         still read as curves. *)
      let cell (x, y) =
        let cx =
          int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1))
        in
        let cy =
          int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1))
        in
        (max 0 (min (width - 1) cx), max 0 (min (height - 1) cy))
      in
      let draw_segment (x1, y1) (x2, y2) =
        let steps = max (abs (x2 - x1)) (abs (y2 - y1)) in
        for k = 0 to steps do
          let t = if steps = 0 then 0.0 else float_of_int k /. float_of_int steps in
          let cx = x1 + int_of_float (t *. float_of_int (x2 - x1)) in
          let cy = y1 + int_of_float (t *. float_of_int (y2 - y1)) in
          grid.(height - 1 - cy).(cx) <- marker
        done
      in
      let sorted = List.sort compare s.points in
      let rec go = function
        | a :: (b :: _ as rest) ->
            draw_segment (cell a) (cell b);
            go rest
        | [ single ] ->
            let cx, cy = cell single in
            grid.(height - 1 - cy).(cx) <- marker
        | [] -> ()
      in
      go sorted
    in
    List.iteri plot_series series;
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (title ^ "\n");
    Array.iteri
      (fun row line ->
        let y = ymax -. (float_of_int row /. float_of_int (height - 1) *. yspan) in
        Buffer.add_string buf (Printf.sprintf "%10.2f |" y);
        Buffer.add_string buf (String.init width (fun c -> line.(c)));
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf (String.make 11 ' ' ^ "+" ^ String.make width '-' ^ "\n");
    Buffer.add_string buf
      (Printf.sprintf "%10s  %-10.2f%*s%.2f  %s\n" "" xmin (width - 18) ""
         xmax x_label);
    List.iteri
      (fun idx s ->
        Buffer.add_string buf
          (Printf.sprintf "          %c = %s\n" markers.(idx mod Array.length markers)
             s.label))
      series;
    Buffer.contents buf
  end

let print ?width ?height ?x_label ~title series =
  print_string (render ?width ?height ?x_label ~title series);
  print_newline ()

let spark_levels =
  [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
     "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline ?(width = 60) values =
  let n = List.length values in
  if n = 0 then ""
  else begin
    let v = Array.of_list values in
    (* Downsample by bucket-max so short spikes survive compression. *)
    let cells = min width n in
    let bucketed =
      Array.init cells (fun c ->
        let lo = c * n / cells and hi = ((c + 1) * n / cells) - 1 in
        let m = ref v.(lo) in
        for k = lo + 1 to max lo hi do
          if v.(k) > !m then m := v.(k)
        done;
        !m)
    in
    let vmin = Array.fold_left min bucketed.(0) bucketed in
    let vmax = Array.fold_left max bucketed.(0) bucketed in
    let span = if vmax = vmin then 1.0 else vmax -. vmin in
    let buf = Buffer.create (cells * 3) in
    Array.iter
      (fun x ->
        let lvl =
          int_of_float ((x -. vmin) /. span *. 7.0 +. 0.5)
        in
        Buffer.add_string buf spark_levels.(max 0 (min 7 lvl)))
      bucketed;
    Buffer.contents buf
  end
