(* Tests of the analysis server: golden JSON-RPC transcripts through the
   dispatcher (exact response bytes and error codes per method, the
   malformed/unknown/closed/stale cases included), batch semantics
   (coalescing, admission ordering), a soak run asserting bounded heap
   and byte-identical warm responses, and the QCheck concurrency-
   determinism property (jobs-1 vs jobs-4 response streams). *)

module Server = Ipcp_serve.Server
module Protocol = Ipcp_serve.Protocol
module Client = Ipcp_serve.Client
module Json = Ipcp_obs.Json
module Ipcp = Ipcp_api.Ipcp

let config = { Ipcp.Config.default with Ipcp.Config.jobs = 1 }
let server () = Server.create ~config ()

(* the golden program: two constants reaching work, one substitution
   chain in main *)
let src =
  {|
PROGRAM main
  INTEGER x
  x = 2 + 3
  CALL work(10, x)
END

SUBROUTINE work(a, b)
  INTEGER a, b
  PRINT *, a + b
END
|}

(* the same program with main's literal actual edited: work's summary
   changes but only main's content fingerprint does *)
let src_b = Astring.String.cuts ~sep:"10" src |> String.concat "11"

let frame ?(params = []) id meth =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id);
         ("method", Json.Str meth);
         ("params", Json.Obj params);
       ])

let session_params ?generation sid =
  ("session", Json.Int sid)
  ::
  (match generation with
  | Some g -> [ ("generation", Json.Int g) ]
  | None -> [])

let result_of line =
  match Json.parse line with
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e
  | Ok j -> (
      match (Json.member "result" j, Protocol.response_error j) with
      | Some r, None -> r
      | _, Some (code, msg) ->
          Alcotest.failf "error response [%d] %s" code msg
      | None, None -> Alcotest.failf "no result in %s" line)

let error_code line =
  match Json.parse line with
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e
  | Ok j -> (
      match Protocol.response_error j with
      | Some (code, _) -> code
      | None -> Alcotest.failf "expected an error response, got %s" line)

(* ------------------------------------------------------------------ *)
(* Golden transcripts: one request per batch, exact response bytes *)

let golden_tests =
  let check_line sv input expected =
    Alcotest.(check string) input expected (Server.handle_line sv input)
  in
  [
    Alcotest.test_case "lifecycle and query methods" `Quick (fun () ->
        let sv = server () in
        check_line sv
          (frame 1 "open"
             ~params:
               [ ("source", Json.Str src); ("file", Json.Str "g.f") ])
          {|{"id":1,"result":{"session":1,"generation":1,"fingerprint":"8a0c771db6dcecec2815b4d00390fcf2","procedures":["main","work"],"dirty":{"generation":1,"procs":2,"changed":2,"dirty":2,"dirty_procs":[]}}}|};
        check_line sv
          (frame 2 "analyze" ~params:(session_params 1))
          {|{"id":2,"result":{"procedures":["main","work"],"constants":{"work":{"a":10,"b":5}},"total_constants":2,"substituted":2,"census":{"const":2,"passthrough":0,"polynomial":0,"bottom":0,"total_cost":2}}}|};
        check_line sv
          (frame 3 "query"
             ~params:
               (("proc", Json.Str "work")
               :: ("what", Json.Str "constants")
               :: session_params 1))
          {|{"id":3,"result":{"proc":"work","constants":{"a":10,"b":5}}}|};
        check_line sv
          (frame 4 "query"
             ~params:
               (("proc", Json.Str "work")
               :: ("what", Json.Str "ranges")
               :: session_params 1))
          {|{"id":4,"result":{"proc":"work","ranges":{"a":"10","b":"5"}}}|};
        check_line sv
          (frame 5 "query"
             ~params:
               (("proc", Json.Str "work")
               :: ("what", Json.Str "lints")
               :: session_params 1))
          {|{"id":5,"result":{"proc":"work","findings":[{"check":"IPCP-I007","severity":"info","loc":"g.f:8:1","message":"formal parameter a is the constant 10 at every call site"},{"check":"IPCP-I007","severity":"info","loc":"g.f:8:1","message":"formal parameter b is the constant 5 at every call site"}]}}|};
        check_line sv
          (frame 6 "ranges" ~params:(session_params 1))
          {|{"id":6,"result":{"procedures":[{"procedure":"main","entry":{}},{"procedure":"work","entry":{"a":"10","b":"5"}}],"facts":[{"loc":"g.f:10:12","range":"10"},{"loc":"g.f:10:16","range":"5"}],"summary":{"procedures":2,"facts":2,"singleton":2,"bounded":0,"unbounded":0,"unreached":0}}}|};
        check_line sv
          (frame 7 "lint" ~params:(session_params 1))
          {|{"id":7,"result":{"findings":[{"check":"IPCP-I007","severity":"info","file":"g.f","line":8,"col":1,"procedure":"work","message":"formal parameter a is the constant 10 at every call site"},{"check":"IPCP-I007","severity":"info","file":"g.f","line":8,"col":1,"procedure":"work","message":"formal parameter b is the constant 5 at every call site"}],"summary":{"errors":0,"warnings":0,"infos":2}}}|};
        (* invalidate: work's caller closure is {main, work}; generation
           bumps without reanalysis *)
        check_line sv
          (frame 8 "invalidate"
             ~params:
               (("procs", Json.Arr [ Json.Str "work" ]) :: session_params 1))
          {|{"id":8,"result":{"dirty":{"generation":2,"procs":2,"changed":1,"dirty":2,"dirty_procs":["main","work"]}}}|};
        (* update: only main's content fingerprint changes, and main has
           no callers — the dirty closure is just main *)
        check_line sv
          (frame 9 "update"
             ~params:
               (("source", Json.Str src_b)
               :: ("file", Json.Str "g.f")
               :: session_params 1))
          {|{"id":9,"result":{"fingerprint":"4f140f60d1426a84b9e243ce3902d8cf","dirty":{"generation":3,"procs":2,"changed":1,"dirty":1,"dirty_procs":["main"]}}}|};
        (* a query prepared against the pre-update generation is stale *)
        check_line sv
          (frame 10 "analyze" ~params:(session_params ~generation:2 1))
          {|{"id":10,"error":{"code":-32004,"message":"generation 2 is stale (session is at 3)"}}|};
        check_line sv
          (frame 16 "close" ~params:(session_params 1))
          {|{"id":16,"result":{"closed":1}}|};
        check_line sv
          (frame 17 "analyze" ~params:(session_params 1))
          {|{"id":17,"error":{"code":-32002,"message":"session 1 is closed"}}|};
        Alcotest.(check int) "no open sessions" 0 (Server.session_count sv));
    Alcotest.test_case "error responses" `Quick (fun () ->
        let sv = server () in
        ignore
          (Server.handle_line sv
             (frame 1 "open"
                ~params:
                  [ ("source", Json.Str src); ("file", Json.Str "g.f") ]));
        check_line sv
          (frame 12 "nonsense")
          {|{"id":12,"error":{"code":-32601,"message":"unknown method nonsense"}}|};
        check_line sv
          (frame 13 "query"
             ~params:(("proc", Json.Str "nosuch") :: session_params 1))
          {|{"id":13,"error":{"code":-32006,"message":"unknown procedure nosuch"}}|};
        check_line sv
          (frame 14 "query" ~params:(session_params 7))
          {|{"id":14,"error":{"code":-32001,"message":"no session 7"}}|};
        check_line sv (frame 15 "analyze")
          {|{"id":15,"error":{"code":-32602,"message":"missing \"session\""}}|};
        (* malformed frames: broken JSON, then a well-formed object that
           violates the frame contract *)
        Alcotest.(check int)
          "unterminated string" Protocol.parse_error
          (error_code
             (Server.handle_line sv {|{"id":0,"method":"bogus }|}));
        Alcotest.(check string)
          "malformed frames carry a null id"
          {|{"id":null,"error":{"code":-32600,"message":"missing integer \"id\""}}|}
          (Server.handle_line sv {|{"method":"analyze"}|});
        Alcotest.(check int)
          "non-object params" Protocol.invalid_request
          (error_code
             (Server.handle_line sv
                {|{"id":3,"method":"analyze","params":7}|}));
        (* a source that does not parse leaves no session behind *)
        Alcotest.(check int)
          "open of invalid source" Protocol.analysis_error
          (error_code
             (Server.handle_line sv
                (frame 20 "open" ~params:[ ("source", Json.Str "NOT A PROGRAM") ])));
        Alcotest.(check int) "only the good session" 1
          (Server.session_count sv);
        (* shutdown, then everything else is refused *)
        Alcotest.(check string)
          "shutdown acknowledges"
          {|{"id":30,"result":{"stopping":true}}|}
          (Server.handle_line sv (frame 30 "shutdown"));
        Alcotest.(check bool) "stopped" true (Server.stopped sv);
        Alcotest.(check int)
          "post-shutdown requests refused" Protocol.shutting_down
          (error_code
             (Server.handle_line sv
                (frame 31 "analyze" ~params:(session_params 1)))));
    Alcotest.test_case "update error leaves the session intact" `Quick
      (fun () ->
        let sv = server () in
        ignore
          (Server.handle_line sv
             (frame 1 "open" ~params:[ ("source", Json.Str src) ]));
        let before =
          Server.handle_line sv (frame 2 "analyze" ~params:(session_params 1))
        in
        Alcotest.(check int)
          "broken update is an analysis error" Protocol.analysis_error
          (error_code
             (Server.handle_line sv
                (frame 3 "update"
                   ~params:
                     (("source", Json.Str "PROGRAM main\n  oops(")
                     :: session_params 1))));
        let after =
          Server.handle_line sv (frame 4 "analyze" ~params:(session_params 1))
        in
        Alcotest.(check string)
          "same result, modulo request id"
          (Astring.String.cuts ~sep:"\"id\":2" before |> String.concat "")
          (Astring.String.cuts ~sep:"\"id\":4" after |> String.concat ""));
  ]

(* ------------------------------------------------------------------ *)
(* Batch semantics: admission order, coalescing, cache behaviour *)

let payload_of line =
  (* the response with its id stripped, for cross-id comparisons *)
  match Astring.String.cut ~sep:"," line with
  | Some (_, rest) -> rest
  | None -> line

let batch_tests =
  [
    Alcotest.test_case "open and queries in one batch" `Quick (fun () ->
        let sv = server () in
        let responses =
          Server.handle_batch sv
            [
              frame 1 "open" ~params:[ ("source", Json.Str src) ];
              frame 2 "analyze" ~params:(session_params 1);
              frame 3 "analyze" ~params:(session_params 1);
              frame 4 "query"
                ~params:(("proc", Json.Str "work") :: session_params 1);
            ]
        in
        Alcotest.(check int) "one response per request" 4
          (List.length responses);
        (* responses come back in request order *)
        List.iteri
          (fun i line ->
            let id =
              Option.bind (Json.member "id" (Result.get_ok (Json.parse line)))
                Json.to_int
            in
            Alcotest.(check (option int)) "request order" (Some (i + 1)) id)
          responses;
        let a1 = List.nth responses 1 and a2 = List.nth responses 2 in
        Alcotest.(check string)
          "identical analyzes coalesce to identical bytes" (payload_of a1)
          (payload_of a2));
    Alcotest.test_case "warm queries hit the response cache" `Quick
      (fun () ->
        let sv = server () in
        ignore
          (Server.handle_line sv
             (frame 1 "open" ~params:[ ("source", Json.Str src) ]));
        let cold =
          Server.handle_line sv (frame 2 "analyze" ~params:(session_params 1))
        in
        let warm =
          Server.handle_line sv (frame 3 "analyze" ~params:(session_params 1))
        in
        Alcotest.(check string) "byte-identical" (payload_of cold)
          (payload_of warm);
        let stats =
          result_of (Server.handle_line sv (frame 4 "stats"))
        in
        let hits =
          Option.bind (Json.member "cache" stats) (fun c ->
              Option.bind (Json.member "hits" c) Json.to_int)
        in
        Alcotest.(check bool) "cache hit recorded" true (hits >= Some 1));
    Alcotest.test_case "edit-and-revert answers byte-identically" `Quick
      (fun () ->
        let sv = server () in
        ignore
          (Server.handle_line sv
             (frame 1 "open" ~params:[ ("source", Json.Str src) ]));
        let first =
          Server.handle_line sv (frame 2 "analyze" ~params:(session_params 1))
        in
        ignore
          (Server.handle_line sv
             (frame 3 "update"
                ~params:(("source", Json.Str src_b) :: session_params 1)));
        ignore
          (Server.handle_line sv
             (frame 4 "update"
                ~params:(("source", Json.Str src) :: session_params 1)));
        let reverted =
          Server.handle_line sv (frame 5 "analyze" ~params:(session_params 1))
        in
        Alcotest.(check string)
          "reverted program answers byte-identically" (payload_of first)
          (payload_of reverted));
    Alcotest.test_case "update evicts the superseded generation's answers"
      `Quick
      (fun () ->
        let sv = server () in
        let entries id =
          Option.bind
            (Json.member "cache"
               (result_of (Server.handle_line sv (frame id "stats"))))
            (fun c -> Option.bind (Json.member "entries" c) Json.to_int)
        in
        ignore
          (Server.handle_line sv
             (frame 1 "open" ~params:[ ("source", Json.Str src) ]));
        ignore
          (Server.handle_line sv (frame 2 "analyze" ~params:(session_params 1)));
        Alcotest.(check (option int)) "one answer cached" (Some 1) (entries 3);
        ignore
          (Server.handle_line sv
             (frame 4 "update"
                ~params:(("source", Json.Str src_b) :: session_params 1)));
        ignore
          (Server.handle_line sv (frame 5 "analyze" ~params:(session_params 1)));
        Alcotest.(check (option int))
          "only the current generation's answer is cached" (Some 1)
          (entries 6);
        (* an update that keeps the fingerprint keeps its answers *)
        ignore
          (Server.handle_line sv
             (frame 7 "update"
                ~params:
                  (("source", Json.Str ("\n" ^ src_b)) :: session_params 1)));
        Alcotest.(check (option int)) "same content, answer kept" (Some 1)
          (entries 8));
  ]

(* ------------------------------------------------------------------ *)
(* Soak: streamed edits and queries, bounded heap, warm ≡ one-shot *)

let one_shot_analyze source =
  (* a fresh server's view of the same program: session ids restart at
     1, so the whole response line must match byte for byte *)
  let sv = server () in
  ignore
    (Server.handle_line sv (frame 1 "open" ~params:[ ("source", Json.Str source) ]));
  Server.handle_line sv (frame 2 "analyze" ~params:(session_params 1))

let soak_tests =
  [
    Alcotest.test_case "200-iteration edit/query soak" `Slow (fun () ->
        let sv = server () in
        ignore
          (Server.handle_line sv
             (frame 1 "open" ~params:[ ("source", Json.Str src) ]));
        let golden_a = one_shot_analyze src in
        let golden_b = one_shot_analyze src_b in
        let expected_sub = function
          | Ok r -> (Ipcp.Result.substitution r).Ipcp.Result.total
          | Error e -> Alcotest.failf "one-shot analyze failed: %s" e
        in
        let sub_a = expected_sub (Ipcp.analyze ~config (Ipcp.Source.of_string src)) in
        let watermark = ref 0 in
        for i = 1 to 200 do
          let editing_to_b = i mod 2 = 1 in
          let source = if editing_to_b then src_b else src in
          ignore
            (Server.handle_line sv
               (frame (2 * i) "update"
                  ~params:(("source", Json.Str source) :: session_params 1)));
          let analyze_line =
            Server.handle_line sv
              (frame (2 * i) "analyze" ~params:(session_params 1))
          in
          (* the resident session answers byte-identically to a fresh
             one-shot analysis of the same source (ids aligned) *)
          let golden = if editing_to_b then golden_b else golden_a in
          Alcotest.(check string)
            "warm response = one-shot response" (payload_of golden)
            (payload_of analyze_line);
          if not editing_to_b then begin
            let r = result_of analyze_line in
            Alcotest.(check (option int))
              "substituted matches the API one-shot" (Some sub_a)
              (Option.bind (Json.member "substituted" r) Json.to_int)
          end;
          ignore
            (Server.handle_line sv
               (frame (2 * i + 1) "query"
                  ~params:(("proc", Json.Str "work") :: session_params 1)));
          if i = 50 then begin
            Gc.full_major ();
            watermark := (Gc.stat ()).Gc.live_words
          end
        done;
        Gc.full_major ();
        let final = (Gc.stat ()).Gc.live_words in
        (* resident state must not grow with iteration count: 150 more
           edit/query rounds may not double the live heap *)
        Alcotest.(check bool)
          (Printf.sprintf "live heap bounded (watermark %d, final %d)"
             !watermark final)
          true
          (final < !watermark * 2));
  ]

(* ------------------------------------------------------------------ *)
(* QCheck: response streams are invariant under the jobs setting *)

type op =
  | Analyze
  | Ranges
  | Query of string * string
  | Update of bool  (** true = src_b *)
  | Invalidate of string list

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Analyze);
        (2, return Ranges);
        ( 4,
          map2
            (fun p w -> Query (p, w))
            (oneofl [ "main"; "work"; "nosuch" ])
            (oneofl [ "constants"; "ranges"; "lints" ]) );
        (2, map (fun b -> Update b) bool);
        ( 2,
          map
            (fun ps -> Invalidate ps)
            (oneofl [ []; [ "work" ]; [ "main"; "work" ] ]) );
      ])

let op_print = function
  | Analyze -> "analyze"
  | Ranges -> "ranges"
  | Query (p, w) -> Printf.sprintf "query(%s,%s)" p w
  | Update b -> Printf.sprintf "update(%b)" b
  | Invalidate ps -> Printf.sprintf "invalidate(%s)" (String.concat "," ps)

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat ";" (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 1 24) op_gen)

let frames_of_ops ops =
  frame 1 "open" ~params:[ ("source", Json.Str src) ]
  :: List.mapi
       (fun i op ->
         let id = i + 2 in
         match op with
         | Analyze -> frame id "analyze" ~params:(session_params 1)
         | Ranges -> frame id "ranges" ~params:(session_params 1)
         | Query (p, w) ->
             frame id "query"
               ~params:
                 (("proc", Json.Str p)
                 :: ("what", Json.Str w)
                 :: session_params 1)
         | Update b ->
             frame id "update"
               ~params:
                 (("source", Json.Str (if b then src_b else src))
                 :: session_params 1)
         | Invalidate ps ->
             frame id "invalidate"
               ~params:
                 (("procs", Json.Arr (List.map (fun p -> Json.Str p) ps))
                 :: session_params 1))
       ops

(* canonical order: by request id (the streams are already emitted in
   input order, so this is also a check that they stay that way) *)
let canonical responses = List.sort compare responses

let determinism_prop =
  QCheck.Test.make ~count:30
    ~name:"response streams identical under jobs=1 and jobs=4" ops_arb
    (fun ops ->
      let frames = frames_of_ops ops in
      let run jobs =
        let sv =
          Server.create ~config:{ config with Ipcp.Config.jobs } ()
        in
        Server.handle_batch sv frames
      in
      let was = !Ipcp_par.Pool.oversubscribe in
      Ipcp_par.Pool.oversubscribe := true;
      Fun.protect
        ~finally:(fun () -> Ipcp_par.Pool.oversubscribe := was)
        (fun () -> canonical (run 1) = canonical (run 4)))

(* the in-process client speaks the same protocol the transports do *)
let client_tests =
  [
    Alcotest.test_case "in-process client round-trip" `Quick (fun () ->
        let cl = Client.in_process (server ()) in
        let sid =
          match
            Client.request cl ~meth:"open" [ ("source", Json.Str src) ]
          with
          | Ok r ->
              Option.get
                (Option.bind (Json.member "session" r) Json.to_int)
          | Error (code, msg) ->
              Alcotest.failf "open failed: [%d] %s" code msg
        in
        (match
           Client.request cl ~meth:"analyze" [ ("session", Json.Int sid) ]
         with
        | Ok r ->
            Alcotest.(check (option int))
              "substituted" (Some 2)
              (Option.bind (Json.member "substituted" r) Json.to_int)
        | Error (code, msg) ->
            Alcotest.failf "analyze failed: [%d] %s" code msg);
        (match Client.request cl ~meth:"nonsense" [] with
        | Ok _ -> Alcotest.fail "nonsense method succeeded"
        | Error (code, _) ->
            Alcotest.(check int)
              "client surfaces error codes" Protocol.method_not_found code);
        Client.close cl);
  ]

let suites =
  [
    ("serve-golden", golden_tests);
    ("serve-batch", batch_tests);
    ("serve-soak", soak_tests);
    ( "serve-determinism",
      List.map QCheck_alcotest.to_alcotest [ determinism_prop ] );
    ("serve-client", client_tests);
  ]
