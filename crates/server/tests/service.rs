//! End-to-end service tests: a real `Server` on loopback TCP (and a
//! Unix socket), driven through `tempora_client`. These pin the
//! acceptance-critical behaviors: cached-path replies are
//! bitwise-identical to a fresh in-process plan with zero rebuilds, and
//! hostile frames produce `ErrorReply`s without killing the connection.

use tempora_client::Client;
use tempora_proto::{state_digest, ErrorCode, Frame, JobSpec, Problem, Tiling, PROTO_VERSION};
use tempora_server::{fresh_state, CacheConfig, Server, ServerConfig};
use tempora_stencil::{Heat1dCoeffs, Heat2dCoeffs};

fn start_tcp(cache: CacheConfig) -> (Server, String) {
    let server = Server::start(ServerConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        uds: None,
        cache,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp configured").to_string();
    (server, addr)
}

fn heat_spec() -> JobSpec {
    JobSpec::new(Problem::heat1d(2048, 16, Heat1dCoeffs::classic(0.25)))
}

#[test]
fn served_run_matches_fresh_in_process_plan_bitwise() {
    let (server, addr) = start_tcp(CacheConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let spec = heat_spec();
    let seed = 0xfeed;

    // Reference: a fresh plan, built and run in this process.
    let mut state = fresh_state(&spec.problem, seed);
    let report = spec
        .config
        .plan_builder()
        .build(&spec.problem)
        .expect("build reference plan")
        .run(&mut state)
        .expect("run reference plan");

    let first = client.run_steps(&spec, seed).expect("first run");
    assert!(!first.cache_hit, "cold cache");
    assert_eq!(first.plan_builds, 1);
    assert_eq!(
        first.digest,
        state_digest(&state),
        "bitwise-identical state"
    );
    assert_eq!(first.steps, report.steps as u64);
    assert_eq!(first.engine, report.engine);
    assert_eq!(first.threads, report.threads as u32);

    // Second request: served from cache, zero rebuilds, same bits.
    let second = client.run_steps(&spec, seed).expect("second run");
    assert!(second.cache_hit, "warm cache");
    assert_eq!(second.plan_builds, 1, "cache hit must not rebuild");
    assert_eq!(second.digest, first.digest);
    let stats = server.cache().stats();
    assert_eq!(stats.builds, 1);
    server.shutdown(std::time::Duration::from_secs(5));
}

#[test]
fn submit_prepares_without_running() {
    let (server, addr) = start_tcp(CacheConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let spec = heat_spec();
    let prepared = client.submit(&spec).expect("submit");
    assert_eq!(prepared.steps, 0, "submit does not run");
    assert_eq!(prepared.plan_builds, 1);
    // The prepared plan is a cache hit for the first actual run.
    let run = client.run_steps(&spec, 1).expect("run after submit");
    assert!(run.cache_hit);
    assert_eq!(run.plan_builds, 1);
    server.shutdown(std::time::Duration::from_secs(5));
}

#[test]
fn fan_out_over_many_connections_builds_once() {
    let (server, addr) = start_tcp(CacheConfig::default());
    let spec = heat_spec();
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).expect("connect");
            (0..4u64)
                .map(|i| client.run_steps(&spec, t * 100 + i).expect("run").digest)
                .collect::<Vec<_>>()
        }));
    }
    for h in handles {
        h.join().expect("agent thread");
    }
    let stats = server.cache().stats();
    assert_eq!(stats.builds, 1, "16 requests, one compiled plan");
    assert_eq!(stats.hits + stats.misses, 16);
    assert!(stats.hits >= 15, "at most the first lookup may miss");
    server.shutdown(std::time::Duration::from_secs(5));
}

#[test]
fn distinct_specs_do_not_share_plans_and_seeds_matter() {
    let (server, addr) = start_tcp(CacheConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let heat = heat_spec();
    let mut tiled = heat;
    tiled.config.tiling = Tiling::Ghost {
        block: 64,
        height: 4,
    };
    tiled.config.threads = 2;
    let heat2d = JobSpec::new(Problem::heat2d(96, 64, 8, Heat2dCoeffs::classic(0.125)));

    let a = client.run_steps(&heat, 7).expect("heat");
    let b = client.run_steps(&tiled, 7).expect("tiled heat");
    let c = client.run_steps(&heat2d, 7).expect("heat2d");
    // Same problem, same seed, different plan shape: identical physics,
    // identical bits (the tiled run reproduces the untiled run).
    assert_eq!(a.digest, b.digest);
    assert_ne!(a.digest, c.digest);
    assert_eq!(server.cache().stats().builds, 3);
    // Different seed, different initial state, different bits.
    let a2 = client.run_steps(&heat, 8).expect("heat reseeded");
    assert_ne!(a.digest, a2.digest);
    server.shutdown(std::time::Duration::from_secs(5));
}

#[test]
fn small_cache_evicts_and_rebuilds_transparently() {
    let (server, addr) = start_tcp(CacheConfig {
        shards: 1,
        capacity: 2,
        ..CacheConfig::default()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let specs: Vec<JobSpec> = [1024usize, 1152, 1280, 1408]
        .iter()
        .map(|&n| JobSpec::new(Problem::heat1d(n, 8, Heat1dCoeffs::classic(0.25))))
        .collect();
    let first: Vec<u64> = specs
        .iter()
        .map(|s| client.run_steps(s, 3).expect("cold run").digest)
        .collect();
    // Sweep again: everything still answers, evicted entries rebuild to
    // the same bits.
    for (spec, want) in specs.iter().zip(&first) {
        assert_eq!(client.run_steps(spec, 3).expect("warm run").digest, *want);
    }
    let stats = server.cache().stats();
    assert!(stats.evictions >= 2, "cap 2 must evict, saw {stats:?}");
    assert!(stats.builds >= 4);
    server.shutdown(std::time::Duration::from_secs(5));
}

#[test]
fn unknown_version_gets_error_reply_and_connection_survives() {
    use std::io::Write;
    use tempora_proto::{read_frame, write_frame};

    let (server, addr) = start_tcp(CacheConfig::default());
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect raw");
    // Hand-corrupt a frame's version byte and ship it raw.
    let good = Frame::RunSteps {
        request_id: 5,
        spec: heat_spec(),
        seed: 1,
    };
    let mut body = good.encode_body();
    body[0] = PROTO_VERSION + 9;
    stream
        .write_all(&(body.len() as u32).to_le_bytes())
        .and_then(|()| stream.write_all(&body))
        .expect("send corrupt frame");
    let reply = read_frame(&mut stream).expect("read reply").expect("frame");
    let Frame::ErrorReply { code, .. } = reply else {
        panic!("wanted ErrorReply, got {reply:?}");
    };
    assert_eq!(code, ErrorCode::UnsupportedVersion);
    // A garbage tag on the same connection: another ErrorReply.
    let mut bad_tag = good.encode_body();
    bad_tag[1] = 250;
    stream
        .write_all(&(bad_tag.len() as u32).to_le_bytes())
        .and_then(|()| stream.write_all(&bad_tag))
        .expect("send bad tag");
    let reply = read_frame(&mut stream).expect("read reply").expect("frame");
    assert!(matches!(
        reply,
        Frame::ErrorReply {
            code: ErrorCode::BadFrame,
            ..
        }
    ));
    // The same connection still serves real requests afterwards.
    write_frame(&mut stream, &good).expect("send good frame");
    let reply = read_frame(&mut stream).expect("read reply").expect("frame");
    assert!(matches!(reply, Frame::ReportReply { request_id: 5, .. }));
    server.shutdown(std::time::Duration::from_secs(5));
}

/// A small frame naming a huge stride is answered: an LCS `SubmitProblem`
/// at `s = 2³³` once made the build allocate 256 GiB of scratch and abort
/// the server. Its `VL·s` exceeds every segment, so the plan runs scalar
/// rows and needs none; the same connection then serves a normal request.
#[test]
fn huge_stride_submit_is_answered_and_connection_survives() {
    let (server, addr) = start_tcp(CacheConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let mut lcs = JobSpec::new(Problem::lcs(1, 1));
    lcs.config.stride = Some(1 << 33);
    let prepared = client.submit(&lcs).expect("huge-stride submit is answered");
    assert_eq!(prepared.steps, 0, "submit does not run");
    let run = client
        .run_steps(&heat_spec(), 3)
        .expect("normal request after it");
    assert_eq!(run.steps, 16);
    server.shutdown(std::time::Duration::from_secs(5));
}

/// A small frame naming an oversized LCS block is answered: `xblock =
/// 2³²` once made the build allocate 16 GiB of column buffers and abort
/// the server, and `xblock = usize::MAX` poisoned the plan on its first
/// run. The build clamps both extents to the sequence lengths, so both
/// run and match an in-process plan's answer; the same connection then
/// serves a normal request.
#[test]
fn oversized_lcs_block_is_answered_and_connection_survives() {
    let (server, addr) = start_tcp(CacheConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");
    for xblock in [1 << 32, usize::MAX] {
        let mut lcs = JobSpec::new(Problem::lcs(100, 100));
        lcs.config.tiling = Tiling::LcsRect { xblock, yblock: 50 };
        let mut state = fresh_state(&lcs.problem, 9);
        let mut plan = lcs
            .config
            .plan_builder()
            .build(&lcs.problem)
            .expect("build");
        assert!(plan.run(&mut state).expect("run").lcs_length.is_some());
        let run = client
            .run_steps(&lcs, 9)
            .expect("oversized-block run is answered");
        assert_eq!(run.digest, state_digest(&state), "xblock={xblock}");
    }
    let run = client
        .run_steps(&heat_spec(), 3)
        .expect("normal request after it");
    assert_eq!(run.steps, 16);
    server.shutdown(std::time::Duration::from_secs(5));
}

#[test]
fn uds_roundtrip() {
    let path = std::env::temp_dir().join(format!("tempora-serve-test-{}.sock", std::process::id()));
    let server = Server::start(ServerConfig {
        tcp: None,
        uds: Some(path.clone()),
        cache: CacheConfig::default(),
        ..ServerConfig::default()
    })
    .expect("bind uds");
    let mut client = Client::connect_uds(&path).expect("connect uds");
    let spec = heat_spec();
    let a = client.run_steps(&spec, 11).expect("uds run");
    let b = client.run_steps(&spec, 11).expect("uds run 2");
    assert_eq!(a.digest, b.digest);
    assert!(b.cache_hit);
    server.shutdown(std::time::Duration::from_secs(5));
}
