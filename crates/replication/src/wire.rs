//! The file-service RPC wire protocol: every `rhodos-cluster` data
//! server, whichever replica set it belongs to, is reached in exactly
//! this format and served by the same `serve` loop.
//!
//! One request is `opcode · operands`, one reply is
//! `REPLY_OK · payload` or `REPLY_ERR · encoded error`. Everything is
//! length-prefixed little-endian via `rhodos-disk-service`'s codec, and
//! [`serve`] is the entire server: its only state besides the files
//! themselves is the replay cache the caller wraps around it.

use rhodos_disk_service::codec::{DecodeError, Decoder, Encoder};
use rhodos_disk_service::DiskServiceError;
use rhodos_file_service::{
    FileId, FileService, FileServiceError, LeaseGrant, LeaseMode, LeaseToken, ServiceType,
};
use rhodos_net::{NetConfig, ReplayCache, RpcClient, RpcExhausted, SimNetwork};
use rhodos_simdisk::{DiskError, HlcStamp, SimClock};

/// Opcode: create a file of a given [`ServiceType`].
pub const OP_CREATE: u8 = 1;
/// Opcode: open by fid.
pub const OP_OPEN: u8 = 2;
/// Opcode: close by fid.
pub const OP_CLOSE: u8 = 3;
/// Opcode: delete by fid.
pub const OP_DELETE: u8 = 4;
/// Opcode: positional write.
pub const OP_WRITE: u8 = 5;
/// Opcode: positional read.
pub const OP_READ: u8 = 6;
/// Opcode: fetch file attributes.
pub const OP_GET_ATTR: u8 = 7;
/// Opcode: acquire a lease.
pub const OP_LEASE_ACQUIRE: u8 = 8;
/// Opcode: release a lease.
pub const OP_LEASE_RELEASE: u8 = 9;
/// Opcode: renew a lease.
pub const OP_LEASE_RENEW: u8 = 10;
/// Opcode: reattach a previous-epoch lease after a server crash.
pub const OP_LEASE_REATTACH: u8 = 11;
/// Opcode: write under a held write lease (fencing enforced).
pub const OP_WRITE_LEASED: u8 = 12;
/// Opcode: 2PC phase one — a *batch* of cross-shard transactions to
/// prepare on this participant (one RPC, one log force for the whole
/// batch). Not handled by [`serve`]: transaction-aware servers dispatch
/// it to their own handler via [`Channel::call_serve`].
pub const OP_TXN_PREPARE: u8 = 13;
/// Opcode: 2PC phase two — deliver the commit/abort decision for one
/// global transaction id.
pub const OP_TXN_DECIDE: u8 = 14;
/// Opcode: list the global transaction ids this participant holds
/// in doubt (a recovering coordinator's orphan sweep).
pub const OP_TXN_PREPARED_LIST: u8 = 15;

/// Reply tag: success, payload follows.
pub const REPLY_OK: u8 = 0;
/// Reply tag: failure, encoded error follows.
pub const REPLY_ERR: u8 = 1;

/// Encodes an [`OP_CREATE`] request.
pub fn encode_create(st: ServiceType) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(OP_CREATE).u8(match st {
        ServiceType::Basic => 0,
        ServiceType::Transaction => 1,
    });
    e.finish()
}

/// Encodes a fid-only request (`OP_OPEN`/`OP_CLOSE`/`OP_DELETE`/
/// `OP_GET_ATTR`).
pub fn encode_fid_op(op: u8, fid: FileId) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(op).u64(fid.0);
    e.finish()
}

/// Encodes an [`OP_WRITE`] request.
pub fn encode_write(fid: FileId, offset: u64, data: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(OP_WRITE).u64(fid.0).u64(offset).bytes(data);
    e.finish()
}

/// Encodes an [`OP_READ`] request.
pub fn encode_read(fid: FileId, offset: u64, len: usize) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(OP_READ).u64(fid.0).u64(offset).u64(len as u64);
    e.finish()
}

// ---- lease wire format -------------------------------------------------

/// Wire code of a [`LeaseMode`].
pub fn mode_code(mode: LeaseMode) -> u8 {
    match mode {
        LeaseMode::Read => 0,
        LeaseMode::Write => 1,
    }
}

/// Decodes a [`LeaseMode`].
pub fn decode_mode(d: &mut Decoder<'_>) -> LeaseMode {
    match d.u8().expect("lease mode") {
        0 => LeaseMode::Read,
        _ => LeaseMode::Write,
    }
}

/// Encodes an [`HlcStamp`].
pub fn encode_stamp(e: &mut Encoder, s: HlcStamp) {
    e.u64(s.wall_us).u32(s.logical).u32(s.node);
}

/// Decodes an [`HlcStamp`].
pub fn decode_stamp(d: &mut Decoder<'_>) -> HlcStamp {
    HlcStamp {
        wall_us: d.u64().expect("stamp wall"),
        logical: d.u32().expect("stamp logical"),
        node: d.u32().expect("stamp node"),
    }
}

/// Encodes a [`LeaseToken`].
pub fn encode_token(e: &mut Encoder, t: &LeaseToken) {
    e.u64(t.client).u64(t.fid.0).u64(t.epoch).u64(t.seq);
}

/// Decodes a [`LeaseToken`].
pub fn decode_token(d: &mut Decoder<'_>) -> LeaseToken {
    LeaseToken {
        client: d.u64().expect("token client"),
        fid: FileId(d.u64().expect("token fid")),
        epoch: d.u64().expect("token epoch"),
        seq: d.u64().expect("token seq"),
    }
}

/// Encodes a [`LeaseGrant`].
pub fn encode_grant(e: &mut Encoder, g: &LeaseGrant) {
    encode_token(e, &g.token);
    e.u8(mode_code(g.mode)).u64(g.expiry_us);
    encode_stamp(e, g.stamp);
}

/// Decodes a [`LeaseGrant`].
pub fn decode_grant(d: &mut Decoder<'_>) -> LeaseGrant {
    let token = decode_token(d);
    let mode = decode_mode(d);
    let expiry_us = d.u64().expect("grant expiry");
    let stamp = decode_stamp(d);
    LeaseGrant {
        token,
        mode,
        expiry_us,
        stamp,
    }
}

/// Encodes an [`OP_LEASE_ACQUIRE`] request.
pub fn encode_lease_acquire(client: u64, fid: FileId, mode: LeaseMode) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(OP_LEASE_ACQUIRE)
        .u64(client)
        .u64(fid.0)
        .u8(mode_code(mode));
    e.finish()
}

/// Encodes a token-only request (`OP_LEASE_RELEASE`/`OP_LEASE_RENEW`).
pub fn encode_token_op(op: u8, token: &LeaseToken) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(op);
    encode_token(&mut e, token);
    e.finish()
}

/// Encodes an [`OP_LEASE_REATTACH`] request.
pub fn encode_lease_reattach(token: &LeaseToken, mode: LeaseMode, stamp: HlcStamp) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(OP_LEASE_REATTACH);
    encode_token(&mut e, token);
    e.u8(mode_code(mode));
    encode_stamp(&mut e, stamp);
    e.finish()
}

/// Encodes an [`OP_WRITE_LEASED`] request.
pub fn encode_write_leased(fid: FileId, offset: u64, data: &[u8], token: &LeaseToken) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(OP_WRITE_LEASED).u64(fid.0).u64(offset).bytes(data);
    encode_token(&mut e, token);
    e.finish()
}

// ---- cross-shard 2PC wire format ---------------------------------------

/// One transaction of an [`OP_TXN_PREPARE`] batch: its global id and the
/// writes `(fid, offset, data)` it performs on this participant.
pub type PrepareTxn = (u64, Vec<(FileId, u64, Vec<u8>)>);

/// Encodes an [`OP_TXN_PREPARE`] request carrying a whole batch of
/// transactions destined for one participant.
pub fn encode_txn_prepare(batch: &[PrepareTxn]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(OP_TXN_PREPARE).u32(batch.len() as u32);
    for (gtid, ops) in batch {
        e.u64(*gtid).u32(ops.len() as u32);
        for (fid, offset, data) in ops {
            e.u64(fid.0).u64(*offset).bytes(data);
        }
    }
    e.finish()
}

/// Decodes an [`OP_TXN_PREPARE`] body (the opcode byte already
/// consumed). The counts are not trusted for allocation: a frame that
/// claims more than it carries fails when it runs out.
///
/// # Errors
///
/// [`DecodeError`] on a truncated body.
pub fn decode_txn_prepare(d: &mut Decoder<'_>) -> Result<Vec<PrepareTxn>, DecodeError> {
    (0..d.u32()?)
        .map(|_| -> Result<PrepareTxn, DecodeError> {
            let gtid = d.u64()?;
            let ops = (0..d.u32()?)
                .map(|_| Ok((FileId(d.u64()?), d.u64()?, d.bytes()?.to_vec())))
                .collect::<Result<_, DecodeError>>()?;
            Ok((gtid, ops))
        })
        .collect()
}

/// Encodes the [`OP_TXN_PREPARE`] reply payload: one vote per batched
/// transaction, in batch order.
pub fn encode_votes(votes: &[bool]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u32(votes.len() as u32);
    for v in votes {
        e.u8(u8::from(*v));
    }
    e.finish()
}

/// Decodes an [`OP_TXN_PREPARE`] reply payload.
pub fn decode_votes(payload: &[u8]) -> Vec<bool> {
    let mut d = Decoder::new(payload);
    let n = d.u32().expect("vote count");
    (0..n).map(|_| d.u8().expect("vote") != 0).collect()
}

/// Encodes an [`OP_TXN_DECIDE`] request. The coordinator's delivery and
/// its recovery sweep send the same frame.
pub fn encode_txn_decide(gtid: u64, commit: bool) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(OP_TXN_DECIDE).u64(gtid).u8(u8::from(commit));
    e.finish()
}

/// Encodes an [`OP_TXN_PREPARED_LIST`] request.
pub fn encode_txn_prepared_list() -> Vec<u8> {
    let mut e = Encoder::new();
    e.u8(OP_TXN_PREPARED_LIST);
    e.finish()
}

/// Encodes a gtid-list reply payload ([`OP_TXN_PREPARED_LIST`]).
pub fn encode_gtid_list(gtids: &[u64]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u32(gtids.len() as u32);
    for g in gtids {
        e.u64(*g);
    }
    e.finish()
}

/// Decodes a gtid-list reply payload.
pub fn decode_gtid_list(payload: &[u8]) -> Vec<u64> {
    let mut d = Decoder::new(payload);
    let n = d.u32().expect("gtid count");
    (0..n).map(|_| d.u64().expect("gtid")).collect()
}

/// Executes one decoded request against a file service and encodes the
/// reply. This is the entire server: its only state besides the files
/// themselves is the replay cache the caller wraps around it.
pub fn serve(fs: &mut FileService, req: &[u8]) -> Vec<u8> {
    let mut d = Decoder::new(req);
    let op = d.u8().expect("self-generated request");
    let result: Result<Vec<u8>, FileServiceError> = match op {
        OP_CREATE => {
            let st = match d.u8().expect("service type") {
                0 => ServiceType::Basic,
                _ => ServiceType::Transaction,
            };
            fs.create(st).map(|fid| {
                let mut e = Encoder::new();
                e.u64(fid.0);
                e.finish()
            })
        }
        OP_OPEN => fs.open(FileId(d.u64().expect("fid"))).map(|()| Vec::new()),
        OP_CLOSE => fs.close(FileId(d.u64().expect("fid"))).map(|()| Vec::new()),
        OP_DELETE => fs
            .delete(FileId(d.u64().expect("fid")))
            .map(|()| Vec::new()),
        OP_WRITE => {
            let fid = FileId(d.u64().expect("fid"));
            let offset = d.u64().expect("offset");
            let data = d.bytes().expect("data");
            fs.write(fid, offset, data).map(|()| Vec::new())
        }
        OP_READ => {
            let fid = FileId(d.u64().expect("fid"));
            let offset = d.u64().expect("offset");
            let len = d.u64().expect("len") as usize;
            fs.read(fid, offset, len)
        }
        OP_GET_ATTR => fs.get_attribute(FileId(d.u64().expect("fid"))).map(|a| {
            let mut e = Encoder::new();
            a.encode(&mut e);
            e.finish()
        }),
        OP_LEASE_ACQUIRE => {
            let client = d.u64().expect("client");
            let fid = FileId(d.u64().expect("fid"));
            let mode = decode_mode(&mut d);
            fs.lease_acquire(client, fid, mode).map(|(grant, size)| {
                let mut e = Encoder::new();
                encode_grant(&mut e, &grant);
                e.u64(size);
                e.finish()
            })
        }
        OP_LEASE_RELEASE => {
            let token = decode_token(&mut d);
            fs.lease_release(&token);
            Ok(Vec::new())
        }
        OP_LEASE_RENEW => {
            let token = decode_token(&mut d);
            fs.lease_renew(&token).map(|(expiry_us, stamp)| {
                let mut e = Encoder::new();
                e.u64(expiry_us);
                encode_stamp(&mut e, stamp);
                e.finish()
            })
        }
        OP_LEASE_REATTACH => {
            let token = decode_token(&mut d);
            let mode = decode_mode(&mut d);
            let stamp = decode_stamp(&mut d);
            fs.lease_reattach(&token, mode, stamp).map(|grant| {
                let mut e = Encoder::new();
                encode_grant(&mut e, &grant);
                e.finish()
            })
        }
        OP_WRITE_LEASED => {
            let fid = FileId(d.u64().expect("fid"));
            let offset = d.u64().expect("offset");
            let data = d.bytes().expect("data").to_vec();
            let token = decode_token(&mut d);
            fs.write_leased(fid, offset, data, &token)
                .map(|()| Vec::new())
        }
        _ => Err(FileServiceError::BadRequest),
    };
    let mut e = Encoder::new();
    match result {
        Ok(payload) => {
            e.u8(REPLY_OK).bytes(&payload);
        }
        Err(err) => {
            e.u8(REPLY_ERR);
            encode_error(&mut e, &err);
        }
    }
    e.finish()
}

/// Splits a reply into its payload or its decoded error.
pub fn decode_reply(buf: &[u8]) -> Result<Vec<u8>, FileServiceError> {
    let mut d = Decoder::new(buf);
    match d.u8().expect("reply tag") {
        REPLY_OK => Ok(d.bytes().expect("payload").to_vec()),
        _ => Err(decode_error(&mut d)),
    }
}

/// Encodes a [`FileServiceError`] for a `REPLY_ERR` reply.
///
/// Every variant the three error enums have today has an arm; the
/// wildcard arms exist only because the enums are `#[non_exhaustive]`
/// in their own crates. A new variant needs a code here and a row in
/// `error_codec_round_trips`.
pub fn encode_error(e: &mut Encoder, err: &FileServiceError) {
    match err {
        FileServiceError::NotFound(fid) => {
            e.u8(1).u64(fid.0);
        }
        FileServiceError::NotOpen(fid) => {
            e.u8(2).u64(fid.0);
        }
        FileServiceError::Busy(fid) => {
            e.u8(3).u64(fid.0);
        }
        FileServiceError::BeyondEof { fid, offset, size } => {
            e.u8(4).u64(fid.0).u64(*offset).u64(*size);
        }
        FileServiceError::FileTooLarge(fid) => {
            e.u8(5).u64(fid.0);
        }
        FileServiceError::DirectoryFull => {
            e.u8(6);
        }
        FileServiceError::Corrupt(fid) => {
            e.u8(7).u64(fid.0);
        }
        FileServiceError::Disk(d) => {
            e.u8(8);
            encode_disk_error(e, d);
        }
        FileServiceError::LeaseFenced(fid) => {
            e.u8(9).u64(fid.0);
        }
        FileServiceError::LeaseRejected(fid) => {
            e.u8(10).u64(fid.0);
        }
        FileServiceError::ParityLost { fid, row } => {
            e.u8(11).u64(fid.0).u64(*row);
        }
        FileServiceError::BadRequest => {
            e.u8(12);
        }
        other => unreachable!("unencodable file-service error: {other}"),
    }
}

fn encode_disk_error(e: &mut Encoder, err: &DiskServiceError) {
    match err {
        DiskServiceError::NoSpace {
            requested,
            largest_free,
            total_free,
        } => {
            e.u8(1).u64(*requested).u64(*largest_free).u64(*total_free);
        }
        DiskServiceError::NoStableStorage => {
            e.u8(2);
        }
        DiskServiceError::SizeMismatch { expected, got } => {
            e.u8(3).u64(*expected as u64).u64(*got as u64);
        }
        DiskServiceError::BadExtent => {
            e.u8(4);
        }
        DiskServiceError::Disk(d) => {
            e.u8(5);
            match d {
                DiskError::OutOfRange {
                    start,
                    count,
                    total,
                } => {
                    e.u8(1).u64(*start).u64(*count).u64(*total);
                }
                DiskError::BadSector(a) => {
                    e.u8(2).u64(*a);
                }
                DiskError::Crashed => {
                    e.u8(3);
                }
                DiskError::UnalignedBuffer { len } => {
                    e.u8(4).u64(*len as u64);
                }
                DiskError::StableLost(a) => {
                    e.u8(5).u64(*a);
                }
                DiskError::ChecksumMismatch(a) => {
                    e.u8(6).u64(*a);
                }
                other => unreachable!("unencodable disk error: {other}"),
            }
        }
        other => unreachable!("unencodable disk-service error: {other}"),
    }
}

/// Decodes a `REPLY_ERR` body back into a [`FileServiceError`].
pub fn decode_error(d: &mut Decoder<'_>) -> FileServiceError {
    let fid = |d: &mut Decoder<'_>| FileId(d.u64().expect("fid"));
    match d.u8().expect("error code") {
        1 => FileServiceError::NotFound(fid(d)),
        2 => FileServiceError::NotOpen(fid(d)),
        3 => FileServiceError::Busy(fid(d)),
        4 => FileServiceError::BeyondEof {
            fid: fid(d),
            offset: d.u64().expect("offset"),
            size: d.u64().expect("size"),
        },
        5 => FileServiceError::FileTooLarge(fid(d)),
        6 => FileServiceError::DirectoryFull,
        7 => FileServiceError::Corrupt(fid(d)),
        8 => FileServiceError::Disk(decode_disk_error(d)),
        9 => FileServiceError::LeaseFenced(fid(d)),
        10 => FileServiceError::LeaseRejected(fid(d)),
        11 => FileServiceError::ParityLost {
            fid: fid(d),
            row: d.u64().expect("row"),
        },
        12 => FileServiceError::BadRequest,
        other => unreachable!("unknown error code {other}"),
    }
}

fn decode_disk_error(d: &mut Decoder<'_>) -> DiskServiceError {
    match d.u8().expect("disk error code") {
        1 => DiskServiceError::NoSpace {
            requested: d.u64().expect("requested"),
            largest_free: d.u64().expect("largest_free"),
            total_free: d.u64().expect("total_free"),
        },
        2 => DiskServiceError::NoStableStorage,
        3 => DiskServiceError::SizeMismatch {
            expected: d.u64().expect("expected") as usize,
            got: d.u64().expect("got") as usize,
        },
        4 => DiskServiceError::BadExtent,
        5 => DiskServiceError::Disk(match d.u8().expect("device error code") {
            1 => DiskError::OutOfRange {
                start: d.u64().expect("start"),
                count: d.u64().expect("count"),
                total: d.u64().expect("total"),
            },
            2 => DiskError::BadSector(d.u64().expect("addr")),
            3 => DiskError::Crashed,
            4 => DiskError::UnalignedBuffer {
                len: d.u64().expect("len") as usize,
            },
            5 => DiskError::StableLost(d.u64().expect("addr")),
            6 => DiskError::ChecksumMismatch(d.u64().expect("addr")),
            other => unreachable!("unknown device error code {other}"),
        }),
        other => unreachable!("unknown disk error code {other}"),
    }
}

// ---- the per-machine transport endpoint --------------------------------

/// One machine's transport endpoint: the lossy channel to it, the
/// client-side retry state, and the server-side replay cache (which lives
/// with the machine — a crash wipes it).
#[derive(Debug)]
pub struct Channel {
    /// The simulated link.
    pub net: SimNetwork,
    /// Client-side retry/backoff state.
    pub client: RpcClient,
    /// Server-side replay suppression.
    pub cache: ReplayCache,
}

impl Channel {
    /// The endpoint of machine `index` behind a lane behaving as `cfg`.
    /// Per-machine seeds are decorrelated so loss patterns differ across
    /// machines, as they would across independent links; the client id
    /// (`index + 1`) keeps request ids distinct across channels.
    pub fn new(clock: SimClock, cfg: NetConfig, index: usize) -> Self {
        let cfg = NetConfig {
            seed: cfg.seed.wrapping_add(index as u64 * 7919),
            ..cfg
        };
        Self {
            net: SimNetwork::new(clock, cfg),
            client: RpcClient::new(index as u64 + 1),
            cache: ReplayCache::new(),
        }
    }

    /// Issues one encoded request against `fs` over this channel: retried
    /// with backoff while the link loses messages, executed at most once
    /// per request id, the reply decoded back.
    ///
    /// # Errors
    ///
    /// `Err(None)` when the channel exhausted its attempts (machine
    /// unreachable), `Err(Some(_))` for a semantic file-service error.
    pub fn call(
        &mut self,
        fs: &mut FileService,
        req: &[u8],
    ) -> Result<Vec<u8>, Option<FileServiceError>> {
        self.call_serve(req, |r| serve(fs, r))
    }

    /// [`Self::call`] with a caller-supplied server: the same at-most-once
    /// retry/replay machinery, but `server` produces the reply — used by
    /// transaction-aware endpoints that dispatch the 2PC opcodes
    /// ([`OP_TXN_PREPARE`]…) beside the plain file-service ones.
    ///
    /// # Errors
    ///
    /// As [`Self::call`].
    pub fn call_serve(
        &mut self,
        req: &[u8],
        mut server: impl FnMut(&[u8]) -> Vec<u8>,
    ) -> Result<Vec<u8>, Option<FileServiceError>> {
        let Channel { net, client, cache } = self;
        let reply = client
            .call_with_ack(net, |rid, ack| {
                cache.execute_acked(rid, ack, || server(req))
            })
            .map_err(|_: RpcExhausted| None)?;
        decode_reply(&reply).map_err(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_prepare_round_trip() {
        let batch: Vec<PrepareTxn> = vec![
            (7, vec![(FileId(3), 0, b"abc".to_vec())]),
            (
                9,
                vec![(FileId(4), 128, b"xy".to_vec()), (FileId(5), 0, Vec::new())],
            ),
        ];
        let req = encode_txn_prepare(&batch);
        let mut d = Decoder::new(&req);
        assert_eq!(d.u8().unwrap(), OP_TXN_PREPARE);
        assert_eq!(decode_txn_prepare(&mut d), Ok(batch));
    }

    #[test]
    fn votes_and_gtid_lists_round_trip() {
        let votes = vec![true, false, true];
        assert_eq!(decode_votes(&encode_votes(&votes)), votes);
        let gtids = vec![1u64, 99, 12345];
        assert_eq!(decode_gtid_list(&encode_gtid_list(&gtids)), gtids);
        assert!(decode_gtid_list(&encode_gtid_list(&[])).is_empty());
    }

    #[test]
    fn decide_wire_shape() {
        let req = encode_txn_decide(42, true);
        let mut d = Decoder::new(&req);
        assert_eq!(d.u8().unwrap(), OP_TXN_DECIDE);
        assert_eq!(d.u64().unwrap(), 42);
        assert_eq!(d.u8().unwrap(), 1);
        assert!(d.is_empty());
        let list = encode_txn_prepared_list();
        assert_eq!(
            list[Decoder::new(&list).u8().map(|_| 0).unwrap()],
            OP_TXN_PREPARED_LIST
        );
    }

    #[test]
    fn error_codec_round_trips() {
        let errors = vec![
            FileServiceError::NotFound(FileId(7)),
            FileServiceError::NotOpen(FileId(8)),
            FileServiceError::Busy(FileId(9)),
            FileServiceError::BeyondEof {
                fid: FileId(1),
                offset: 10,
                size: 5,
            },
            FileServiceError::FileTooLarge(FileId(2)),
            FileServiceError::DirectoryFull,
            FileServiceError::Corrupt(FileId(3)),
            FileServiceError::Disk(DiskServiceError::NoSpace {
                requested: 4,
                largest_free: 2,
                total_free: 3,
            }),
            FileServiceError::Disk(DiskServiceError::NoStableStorage),
            FileServiceError::Disk(DiskServiceError::SizeMismatch {
                expected: 512,
                got: 100,
            }),
            FileServiceError::Disk(DiskServiceError::BadExtent),
            FileServiceError::Disk(DiskServiceError::Disk(DiskError::OutOfRange {
                start: 1,
                count: 2,
                total: 8,
            })),
            FileServiceError::Disk(DiskServiceError::Disk(DiskError::BadSector(77))),
            FileServiceError::Disk(DiskServiceError::Disk(DiskError::Crashed)),
            FileServiceError::Disk(DiskServiceError::Disk(DiskError::UnalignedBuffer {
                len: 13,
            })),
            FileServiceError::Disk(DiskServiceError::Disk(DiskError::StableLost(5))),
            FileServiceError::Disk(DiskServiceError::Disk(DiskError::ChecksumMismatch(21))),
            FileServiceError::LeaseFenced(FileId(11)),
            FileServiceError::LeaseRejected(FileId(12)),
            FileServiceError::ParityLost {
                fid: FileId(13),
                row: 4,
            },
            FileServiceError::BadRequest,
        ];
        for err in errors {
            let mut e = Encoder::new();
            encode_error(&mut e, &err);
            let buf = e.finish();
            let mut d = Decoder::new(&buf);
            assert_eq!(decode_error(&mut d), err);
            assert!(d.is_empty(), "trailing bytes for {err:?}");
        }
    }
}
