type entry = { workload : Workload.t; describe : string }

let all () =
  let entry describe workload = { workload; describe } in
  List.map
    (fun k ->
      entry
        ("STREAM " ^ Stream.kernel_name k ^ " kernel")
        (Stream.workload ~n:200_000 k))
    [ Stream.Sum; Stream.Copy; Stream.Scale; Stream.Triad ]
  @ [
      entry "k-means clustering (dimension-major)"
        (Kmeans.workload (Kmeans.default_params ~n:15_000));
      entry "Zipfian hashmap lookups"
        (Hashmap.workload
           (Hashmap.default_params ~keys:80_000 ~lookups:100_000));
      entry "memcached-style KV store, Zipf 1.1"
        (Memcached.workload
           (Memcached.default_params ~keys:80_000 ~gets:50_000 ~skew:1.1));
      entry "NYC-taxi-style dataframe queries"
        (Analytics.workload (Analytics.default_params ~rows:150_000));
      entry "permuted linked-list traversal" (Chase.workload ~nodes:60_000);
      entry "helper-hidden list+tree traversal (shape analysis)"
        (Llist.workload ~nodes:40_000 ~tnodes:16_000);
    ]
  @ List.map
      (fun k ->
        entry
          ("NAS " ^ String.uppercase_ascii (Nas.kernel_name k) ^ " kernel")
          (Nas.workload (Nas.default_params k)))
      Nas.all_kernels

let find name =
  List.find_opt (fun e -> e.workload.Workload.name = name) (all ())
