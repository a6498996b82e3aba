//! The wire frame format, pinned. Every request variant has golden bytes
//! (the frames the per-opcode encoders wrote before `wire::Request`
//! replaced them, so no virtual-time lane can move) and a round trip.
//! No frame — a valid one cut short, with a byte flipped, with a byte
//! appended, or with a code no encoder writes — panics the plain server
//! (`wire::serve`) or the transaction-aware one (`cluster::serve_txn`),
//! and every reply decodes.

use proptest::prelude::*;
use rhodos_cluster::serve_txn;
use rhodos_file_service::{
    FileId, FileService, FileServiceConfig, FileServiceError, LeaseMode, LeaseToken, LockLevel,
    RecallAck, RecallTarget, ServiceType,
};
use rhodos_replication::wire::{
    decode_reply, decode_resolved, decode_votes, encode_reply, serve, Request,
};
use rhodos_simdisk::{BlockBuf, DiskGeometry, LatencyModel, SimClock};
use rhodos_txn::TransactionService;

const TOKEN: LeaseToken = LeaseToken {
    client: 11,
    fid: FileId(12),
    epoch: 13,
    seq: 14,
};

/// One request of each variant (and both values of each two-valued
/// code) with the bytes it must encode to, in hex.
fn golden() -> Vec<(Request<'static>, &'static str)> {
    let batch = vec![
        (
            20,
            vec![(FileId(21), 22, &b"ab"[..]), (FileId(23), 0, &[][..])],
        ),
        (24, vec![]),
    ];
    vec![
        (Request::Create(ServiceType::Basic), "0100"),
        (Request::Create(ServiceType::Transaction), "0101"),
        (Request::Open(FileId(3)), "020300000000000000"),
        (Request::Close(FileId(4)), "030400000000000000"),
        (Request::Delete(FileId(5)), "040500000000000000"),
        (
            Request::Write(FileId(6), 1024, b"golden"),
            "050600000000000000000400000000000006000000676f6c64656e",
        ),
        (
            Request::Read(FileId(7), 512, 2048),
            "06070000000000000000020000000000000008000000000000",
        ),
        (Request::GetAttr(FileId(8)), "070800000000000000"),
        (
            Request::LeaseAcquire(9, FileId(10), LeaseMode::Write),
            "0809000000000000000a0000000000000001",
        ),
        (
            Request::LeaseRelease(TOKEN),
            "090b000000000000000c000000000000000d000000000000000e00000000000000",
        ),
        (
            Request::LeaseRenew(TOKEN),
            "0a0b000000000000000c000000000000000d000000000000000e00000000000000",
        ),
        (
            Request::LeaseReattach(TOKEN, LeaseMode::Read),
            "0b0b000000000000000c000000000000000d000000000000000e0000000000000000",
        ),
        (
            Request::WriteLeased(FileId(18), 19, b"lease", TOKEN),
            "0c12000000000000001300000000000000050000006c65617365\
             0b000000000000000c000000000000000d000000000000000e00000000000000",
        ),
        (
            Request::TxnPrepare(batch),
            "0d020000001400000000000000020000001500000000000000160000000000000002000000\
             61621700000000000000000000000000000000000000180000000000000000000000",
        ),
        (Request::TxnDecide(25, true), "0e190000000000000001"),
        (Request::TxnDecide(26, false), "0e1a0000000000000000"),
        (Request::TxnPreparedList, "0f"),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_variant_keeps_its_golden_bytes_and_round_trips() {
    let golden = golden();
    let mut opcodes: Vec<u8> = Vec::new();
    for (req, bytes) in &golden {
        let frame = req.encode();
        assert_eq!(hex(&frame), *bytes, "{req:?}");
        assert_eq!(Request::decode(&frame).as_ref(), Ok(req));
        opcodes.push(frame[0]);
    }
    opcodes.dedup();
    assert_eq!(
        opcodes,
        (1..=15).collect::<Vec<u8>>(),
        "one frame per opcode"
    );
}

/// The two servers under test, each over its own scratch disk, with one
/// open file holding a few bytes so that requests reach the file
/// service rather than stopping at `NotFound`.
struct Servers {
    fs: FileService,
    ts: TransactionService,
    fid: FileId,
}

fn scratch() -> FileService {
    let geometry = DiskGeometry::small();
    let clock = SimClock::new();
    let cfg = FileServiceConfig::default();
    FileService::single_disk(geometry, LatencyModel::instant(), clock, cfg).unwrap()
}

impl Servers {
    fn new() -> Self {
        let mut ts = TransactionService::new(scratch(), Default::default()).unwrap();
        let fid = ts.tcreate(LockLevel::Page).unwrap();
        ts.file_service_mut().open(fid).unwrap();
        ts.file_service_mut()
            .write(fid, 0, &[7u8; 600][..])
            .unwrap();
        // The transaction service's log holds the first fid: the plain
        // server gets a file there too, so one frame names the same file
        // on both.
        let mut fs = scratch();
        fs.create(ServiceType::Basic).unwrap();
        assert_eq!(fs.create(ServiceType::Basic).unwrap(), fid);
        fs.open(fid).unwrap();
        fs.write(fid, 0, &[7u8; 600][..]).unwrap();
        Self { fs, ts, fid }
    }

    /// A valid frame of every variant, aimed at the open file.
    fn frames(&self) -> Vec<Vec<u8>> {
        let fid = self.fid;
        let token = LeaseToken { fid, ..TOKEN };
        let prepare = vec![(31, vec![(fid, 100, &b"xyz"[..])]), (32, vec![])];
        [
            Request::Create(ServiceType::Basic),
            Request::Open(fid),
            Request::Close(fid),
            Request::Delete(fid),
            Request::Write(fid, 512, b"abcd"),
            Request::Read(fid, 0, 700),
            Request::GetAttr(fid),
            Request::LeaseAcquire(5, fid, LeaseMode::Read),
            Request::LeaseRelease(token),
            Request::LeaseRenew(token),
            Request::LeaseReattach(token, LeaseMode::Write),
            Request::WriteLeased(fid, 8, b"lease", token),
            Request::TxnPrepare(prepare),
            Request::TxnDecide(31, false),
            Request::TxnPreparedList,
        ]
        .iter()
        .map(Request::encode)
        .collect()
    }

    /// Serves `frame` on both servers; each reply must be a whole reply
    /// that decodes (re-encoding it gives it back byte for byte).
    /// Returns the two decoded replies.
    fn serve(&mut self, frame: &[u8]) -> [Result<Vec<u8>, FileServiceError>; 2] {
        [serve(&mut self.fs, frame), serve_txn(&mut self.ts, frame)].map(|reply| {
            let decoded = decode_reply(&reply);
            let again = encode_reply(decoded.clone());
            assert_eq!(again, reply, "the reply to {} does not decode", hex(frame));
            decoded
        })
    }
}

/// Every strict prefix of a valid frame, and the frame with one byte
/// appended, is answered `BadRequest` by both servers; every single-byte
/// flip is answered — whatever it says — without a panic.
#[test]
fn no_prefix_flip_or_extra_byte_panics_a_server() {
    let mut servers = Servers::new();
    let bad = || [0, 1].map(|_| Err(FileServiceError::BadRequest));
    for frame in servers.frames() {
        for len in 0..frame.len() {
            assert_eq!(
                servers.serve(&frame[..len]),
                bad(),
                "{}",
                hex(&frame[..len])
            );
        }
        let longer = [frame.as_slice(), &[0]].concat();
        assert_eq!(servers.serve(&longer), bad(), "{}", hex(&longer));
        for i in 0..frame.len() {
            let mut flipped = frame.clone();
            flipped[i] ^= 0xff;
            let _ = servers.serve(&flipped);
        }
        let [_, txn_reply] = servers.serve(&frame);
        assert_ne!(
            txn_reply,
            Err(FileServiceError::BadRequest),
            "{}",
            hex(&frame)
        );
    }
}

/// A two-valued code other than `0` or `1` is an error, never the second
/// value: not a transaction file, not a write lease (which would recall
/// every reader), not a commit, not a yes vote, and a reply tag other
/// than ok or error is not an error reply.
#[test]
fn unknown_codes_are_rejected_not_read_as_the_last_option() {
    let mut servers = Servers::new();
    let fid = servers.fid;
    let bad = || [0, 1].map(|_| Err(FileServiceError::BadRequest));
    for code in [2u8, 255] {
        assert_eq!(servers.serve(&[1, code]), bad(), "service type {code}");

        let mut acquire = Request::LeaseAcquire(5, fid, LeaseMode::Read).encode();
        *acquire.last_mut().unwrap() = code;
        assert_eq!(servers.serve(&acquire), bad(), "lease mode {code}");

        // A transaction in doubt on the participant stays in doubt.
        let prepare = Request::TxnPrepare(vec![(40, vec![(fid, 0, &b"v"[..])])]).encode();
        let votes = decode_reply(&serve_txn(&mut servers.ts, &prepare));
        assert_eq!(votes.and_then(|p| decode_votes(&p)), Ok(vec![true]));
        let mut decide = Request::TxnDecide(40, true).encode();
        *decide.last_mut().unwrap() = code;
        assert_eq!(servers.serve(&decide), bad(), "verdict {code}");
        assert_eq!(servers.ts.prepared_gtids(), vec![40]);
        let decide = Request::TxnDecide(40, false).encode();
        let resolved = decode_reply(&serve_txn(&mut servers.ts, &decide));
        assert_eq!(resolved.and_then(|p| decode_resolved(&p)), Ok(true));

        assert_eq!(
            decode_votes(&[1, 0, 0, 0, code]),
            Err(FileServiceError::BadRequest)
        );
        assert_eq!(decode_resolved(&[code]), Err(FileServiceError::BadRequest));
        // A well-formed `NotFound` body behind an unknown tag.
        let reply = [&[code, 1][..], &7u64.to_le_bytes()].concat();
        assert_eq!(decode_reply(&reply), Err(FileServiceError::BadRequest));
    }
    assert_eq!(
        decode_reply(&[&[1, 1][..], &7u64.to_le_bytes()].concat()),
        Err(FileServiceError::NotFound(FileId(7)))
    );
}

/// A lease-acquire frame to the transaction-aware server applies a
/// recalled write delegation on a transaction-service file as one
/// transaction, as `TransactionService::lease_acquire` does for an agent
/// in process — not as a plain write straight to the file.
#[test]
fn a_lease_acquire_frame_commits_a_recalled_delegation_as_a_transaction() {
    /// Client 1's station, holding `hello` under its write delegation.
    struct Holder;
    impl RecallTarget for Holder {
        fn client_id(&self) -> u64 {
            1
        }
        fn recall(&mut self, _: FileId, _: u64) -> Option<RecallAck> {
            let runs = vec![(0, BlockBuf::from(&b"hello"[..]))];
            Some(RecallAck { runs })
        }
    }
    let mut servers = Servers::new();
    let fid = servers.fid;
    let ts = &mut servers.ts;
    ts.file_service_mut()
        .lease_manager_mut()
        .attach(Box::new(Holder));
    let mut acquire = |client, mode| {
        let frame = Request::LeaseAcquire(client, fid, mode).encode();
        decode_reply(&serve_txn(ts, &frame)).expect("granted");
        ts.stats().committed
    };
    let before = acquire(1, LeaseMode::Write);
    assert_eq!(acquire(2, LeaseMode::Read), before + 1, "one transaction");
    let fs = servers.ts.file_service_mut();
    assert_eq!(fs.read(fid, 0, 5).unwrap(), b"hello");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A random request of a random variant round-trips, and the same
    /// frame with one random byte changed by a random mask leaves both
    /// servers answering with a reply that decodes.
    #[test]
    fn a_random_frame_round_trips_and_a_damaged_one_is_answered(
        (variant, a, b) in (0usize..15, any::<u64>(), any::<u64>()),
        data in proptest::collection::vec(any::<u8>(), 0..24),
        (at, mask) in (any::<usize>(), 1u8..=255),
    ) {
        let mut servers = Servers::new();
        let fid = if a % 2 == 0 { servers.fid } else { FileId(a) };
        let offset = b % 8192;
        let token = LeaseToken { client: a, fid, epoch: b, seq: a ^ b };
        let mode = [LeaseMode::Read, LeaseMode::Write][(b % 2) as usize];
        let req = [
            Request::Create([ServiceType::Basic, ServiceType::Transaction][(a % 2) as usize]),
            Request::Open(fid),
            Request::Close(fid),
            Request::Delete(fid),
            Request::Write(fid, offset, &data),
            Request::Read(fid, offset, (a % 4096) as usize),
            Request::GetAttr(fid),
            Request::LeaseAcquire(a, fid, mode),
            Request::LeaseRelease(token),
            Request::LeaseRenew(token),
            Request::LeaseReattach(token, mode),
            Request::WriteLeased(fid, offset, &data, token),
            Request::TxnPrepare(vec![(a, vec![(fid, offset, &data[..])]), (b, vec![])]),
            Request::TxnDecide(a, b % 2 == 0),
            Request::TxnPreparedList,
        ][variant].clone();
        let mut frame = req.encode();
        prop_assert_eq!(Request::decode(&frame), Ok(req));
        let [_, txn_reply] = servers.serve(&frame);
        prop_assert_ne!(txn_reply, Err(FileServiceError::BadRequest));
        let at = at % frame.len();
        frame[at] ^= mask;
        let _ = servers.serve(&frame);
    }
}
