//! The file-service RPC wire protocol: every `rhodos-cluster` data
//! server, whichever replica set it belongs to, is reached in exactly
//! this format and served by the same `serve` loop.
//!
//! One request is `opcode · operands`, one [`Request`] variant per
//! opcode: [`Request::encode`] writes a frame and [`Request::decode`]
//! reads one back, so the layout of every message is written here once.
//! One reply is `0 · payload` or `1 · encoded error`; each payload a
//! caller reads has its own fallible reader below. Everything is
//! length-prefixed little-endian via `rhodos-disk-service`'s codec.
//! Nothing a peer sends can panic this module: a request that does not
//! decode is answered [`FileServiceError::BadRequest`], and a reply or
//! payload that does not decode reads as that error. [`serve`] is the
//! entire server: its only state besides the files themselves is the
//! replay cache the caller wraps around it.

use rhodos_disk_service::codec::{DecodeError, Decoder, Encoder};
use rhodos_disk_service::DiskServiceError;
use rhodos_file_service::{
    FileAttributes, FileId, FileService, FileServiceError, LeaseGrant, LeaseMode, LeaseToken,
    ServiceType,
};
use rhodos_net::{NetConfig, ReplayCache, RpcClient, RpcExhausted, SimNetwork};
use rhodos_simdisk::{BlockBuf, DiskError, SimClock};

/// Reply tag: success, payload follows.
const REPLY_OK: u8 = 0;
/// Reply tag: failure, encoded error follows.
const REPLY_ERR: u8 = 1;

/// One transaction of a [`Request::TxnPrepare`] batch: its global id and
/// the writes `(fid, offset, data)` it performs on this participant.
pub type PrepareTxn<'a> = (u64, Vec<(FileId, u64, &'a [u8])>);

/// One request frame. Each variant is one opcode (its number leads the
/// variant's doc) with its operands in frame order; byte payloads borrow
/// from the frame they were decoded from. The two-valued codes — service
/// type, lease mode, verdict — are one byte each, `0` or `1`; any other
/// value does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<'a> {
    /// 1 — create a file of a given [`ServiceType`].
    Create(ServiceType),
    /// 2 — open by fid.
    Open(FileId),
    /// 3 — close by fid.
    Close(FileId),
    /// 4 — delete by fid.
    Delete(FileId),
    /// 5 — positional write: `(fid, offset, data)`.
    Write(FileId, u64, &'a [u8]),
    /// 6 — positional read: `(fid, offset, len)`, clamped at end of file.
    Read(FileId, u64, usize),
    /// 7 — fetch file attributes.
    GetAttr(FileId),
    /// 8 — acquire a lease: `(client, fid, mode)`.
    LeaseAcquire(u64, FileId, LeaseMode),
    /// 9 — release a lease.
    LeaseRelease(LeaseToken),
    /// 10 — renew a lease.
    LeaseRenew(LeaseToken),
    /// 11 — reattach a previous-epoch lease after a server crash:
    /// `(token, mode)` of the pre-crash grant.
    LeaseReattach(LeaseToken, LeaseMode),
    /// 12 — write under a held write lease, fencing enforced:
    /// `(fid, offset, data, token)`.
    WriteLeased(FileId, u64, &'a [u8], LeaseToken),
    /// 13 — 2PC phase one: a *batch* of cross-shard transactions to
    /// prepare on this participant (one RPC, one log force for the whole
    /// batch). The plain [`serve`] answers it `BadRequest`:
    /// transaction-aware servers dispatch it to their own handler via
    /// [`Channel::call_serve`].
    TxnPrepare(Vec<PrepareTxn<'a>>),
    /// 14 — 2PC phase two: `(gtid, commit)`, the commit (`true`) or
    /// abort decision for one global transaction id. The coordinator's
    /// delivery and its recovery sweep send the same frame.
    TxnDecide(u64, bool),
    /// 15 — list the global transaction ids this participant holds in
    /// doubt (a recovering coordinator's orphan sweep).
    TxnPreparedList,
}

impl<'a> Request<'a> {
    /// Encodes the request as one frame, allocated once: every frame's
    /// fixed fields fit in 64 bytes, and a prepare batch adds 12 per
    /// transaction and 20 per write.
    pub fn encode(&self) -> Vec<u8> {
        let payload = match self {
            Self::Write(_, _, data) | Self::WriteLeased(_, _, data, _) => data.len(),
            Self::TxnPrepare(batch) => batch
                .iter()
                .map(|(_, ops)| 12 + ops.iter().map(|op| 20 + op.2.len()).sum::<usize>())
                .sum(),
            _ => 0,
        };
        let mut e = Encoder::with_capacity(64 + payload);
        match self {
            Self::Create(st) => e.u8(1).u8(u8::from(*st == ServiceType::Transaction)),
            Self::Open(fid) => e.u8(2).u64(fid.0),
            Self::Close(fid) => e.u8(3).u64(fid.0),
            Self::Delete(fid) => e.u8(4).u64(fid.0),
            Self::Write(fid, offset, data) => e.u8(5).u64(fid.0).u64(*offset).bytes(data),
            Self::Read(fid, offset, len) => e.u8(6).u64(fid.0).u64(*offset).u64(*len as u64),
            Self::GetAttr(fid) => e.u8(7).u64(fid.0),
            Self::LeaseAcquire(client, fid, mode) => {
                e.u8(8).u64(*client).u64(fid.0).u8(mode_code(*mode))
            }
            Self::LeaseRelease(token) => put_token(e.u8(9), token),
            Self::LeaseRenew(token) => put_token(e.u8(10), token),
            Self::LeaseReattach(token, mode) => put_token(e.u8(11), token).u8(mode_code(*mode)),
            Self::WriteLeased(fid, offset, data, token) => {
                put_token(e.u8(12).u64(fid.0).u64(*offset).bytes(data), token)
            }
            Self::TxnPrepare(batch) => {
                e.u8(13).u32(batch.len() as u32);
                for (gtid, ops) in batch {
                    e.u64(*gtid).u32(ops.len() as u32);
                    for (fid, offset, data) in ops {
                        e.u64(fid.0).u64(*offset).bytes(data);
                    }
                }
                &mut e
            }
            Self::TxnDecide(gtid, commit) => e.u8(14).u64(*gtid).u8(u8::from(*commit)),
            Self::TxnPreparedList => e.u8(15),
        };
        e.finish()
    }

    /// Decodes one whole frame. The counts of a prepare batch are not
    /// trusted for allocation: a frame that claims more than it carries
    /// fails when it runs out.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on a truncated operand, an unknown opcode, a
    /// two-valued code other than `0` or `1`, or bytes after the last
    /// operand.
    pub fn decode(frame: &'a [u8]) -> Result<Self, DecodeError> {
        let d = &mut Decoder::new(frame);
        let req = match d.u8()? {
            1 => Self::Create(service_type(d)?),
            2 => Self::Open(fid(d)?),
            3 => Self::Close(fid(d)?),
            4 => Self::Delete(fid(d)?),
            5 => Self::Write(fid(d)?, d.u64()?, d.bytes()?),
            6 => Self::Read(fid(d)?, d.u64()?, size(d)?),
            7 => Self::GetAttr(fid(d)?),
            8 => Self::LeaseAcquire(d.u64()?, fid(d)?, mode(d)?),
            9 => Self::LeaseRelease(token(d)?),
            10 => Self::LeaseRenew(token(d)?),
            11 => Self::LeaseReattach(token(d)?, mode(d)?),
            12 => Self::WriteLeased(fid(d)?, d.u64()?, d.bytes()?, token(d)?),
            13 => Self::TxnPrepare(
                (0..d.u32()?)
                    .map(|_| -> Result<PrepareTxn<'a>, DecodeError> {
                        let gtid = d.u64()?;
                        let ops = (0..d.u32()?)
                            .map(|_| Ok((fid(d)?, d.u64()?, d.bytes()?)))
                            .collect::<Result<_, DecodeError>>()?;
                        Ok((gtid, ops))
                    })
                    .collect::<Result<_, DecodeError>>()?,
            ),
            14 => Self::TxnDecide(d.u64()?, flag(d)?),
            15 => Self::TxnPreparedList,
            _ => return Err(DecodeError),
        };
        d.is_empty().then_some(req).ok_or(DecodeError)
    }
}

/// `Request::Write(fid, offset, data).encode()`.
pub fn encode_write(fid: FileId, offset: u64, data: &[u8]) -> Vec<u8> {
    Request::Write(fid, offset, data).encode()
}

/// `Request::Read(fid, offset, len).encode()`.
pub fn encode_read(fid: FileId, offset: u64, len: usize) -> Vec<u8> {
    Request::Read(fid, offset, len).encode()
}

/// The wire code of a [`LeaseMode`].
fn mode_code(mode: LeaseMode) -> u8 {
    u8::from(mode == LeaseMode::Write)
}

/// Reads a byte-wide two-valued code: `0` or `1`, nothing else.
fn flag(d: &mut Decoder<'_>) -> Result<bool, DecodeError> {
    match d.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(DecodeError),
    }
}

fn fid(d: &mut Decoder<'_>) -> Result<FileId, DecodeError> {
    d.u64().map(FileId)
}

/// Reads a `u64` length that must fit this machine's `usize`.
fn size(d: &mut Decoder<'_>) -> Result<usize, DecodeError> {
    usize::try_from(d.u64()?).map_err(|_| DecodeError)
}

/// Reads a service type: `0` basic, `1` transaction.
fn service_type(d: &mut Decoder<'_>) -> Result<ServiceType, DecodeError> {
    Ok(if flag(d)? {
        ServiceType::Transaction
    } else {
        ServiceType::Basic
    })
}

/// Reads a lease mode: `0` read, `1` write.
fn mode(d: &mut Decoder<'_>) -> Result<LeaseMode, DecodeError> {
    Ok(if flag(d)? {
        LeaseMode::Write
    } else {
        LeaseMode::Read
    })
}

fn put_token<'e>(e: &'e mut Encoder, t: &LeaseToken) -> &'e mut Encoder {
    e.u64(t.client).u64(t.fid.0).u64(t.epoch).u64(t.seq)
}

fn token(d: &mut Decoder<'_>) -> Result<LeaseToken, DecodeError> {
    Ok(LeaseToken {
        client: d.u64()?,
        fid: fid(d)?,
        epoch: d.u64()?,
        seq: d.u64()?,
    })
}

fn put_grant<'e>(e: &'e mut Encoder, g: &LeaseGrant) -> &'e mut Encoder {
    put_token(e, &g.token)
        .u8(mode_code(g.mode))
        .u64(g.expiry_us)
}

/// Encodes the [`Request::LeaseAcquire`] reply payload: the grant, then
/// the file's size.
pub fn encode_granted(grant: &LeaseGrant, size: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    put_grant(&mut e, grant).u64(size);
    e.finish()
}

/// Decodes a [`LeaseGrant`] — the head of a [`Request::LeaseAcquire`]
/// reply (the file size follows) and the whole of a
/// [`Request::LeaseReattach`] one.
///
/// # Errors
///
/// [`DecodeError`] on a truncated grant or an unknown mode code.
pub fn decode_grant(d: &mut Decoder<'_>) -> Result<LeaseGrant, DecodeError> {
    Ok(LeaseGrant {
        token: token(d)?,
        mode: mode(d)?,
        expiry_us: d.u64()?,
    })
}

// ---- the server --------------------------------------------------------

/// Executes one decoded file-service request and returns its reply
/// payload: the one dispatcher behind both [`serve`] and the
/// transaction-aware servers, which handle the 2PC requests themselves.
///
/// # Errors
///
/// The file service's error; [`FileServiceError::BadRequest`] for a 2PC
/// request, which a plain file service does not serve.
pub fn dispatch(fs: &mut FileService, req: Request<'_>) -> Result<Vec<u8>, FileServiceError> {
    // Each arm leaves its reply payload in `e`; most have none.
    let mut e = Encoder::new();
    match req {
        Request::Create(st) => e.u64(fs.create(st)?.0),
        Request::Open(fid) => fs.open(fid).map(|()| &mut e)?,
        Request::Close(fid) => fs.close(fid).map(|()| &mut e)?,
        Request::Delete(fid) => fs.delete(fid).map(|()| &mut e)?,
        Request::Write(fid, offset, data) => fs.write(fid, offset, data).map(|()| &mut e)?,
        Request::Read(fid, offset, len) => return fs.read(fid, offset, len),
        Request::GetAttr(fid) => {
            fs.get_attribute(fid)?.encode(&mut e);
            &mut e
        }
        Request::LeaseAcquire(client, fid, mode) => {
            let (grant, size) = fs.lease_acquire(client, fid, mode)?;
            return Ok(encode_granted(&grant, size));
        }
        Request::LeaseRelease(token) => {
            fs.lease_manager_mut().release(&token);
            &mut e
        }
        Request::LeaseRenew(token) => e.u64(fs.lease_renew(&token)?),
        Request::LeaseReattach(token, mode) => put_grant(&mut e, &fs.lease_reattach(&token, mode)?),
        Request::WriteLeased(fid, offset, data, token) => fs
            .write_vectored(fid, Some(&token), &[(offset, BlockBuf::from(data))])
            .map(|()| &mut e)?,
        Request::TxnPrepare(_) | Request::TxnDecide(..) | Request::TxnPreparedList => {
            return Err(FileServiceError::BadRequest)
        }
    };
    Ok(e.finish())
}

/// Decodes one request frame, executes it against a file service and
/// encodes the reply; a frame that does not decode is answered
/// [`FileServiceError::BadRequest`]. This is the entire server: its only
/// state besides the files themselves is the replay cache the caller
/// wraps around it.
pub fn serve(fs: &mut FileService, req: &[u8]) -> Vec<u8> {
    encode_reply(
        Request::decode(req)
            .map_err(|_| FileServiceError::BadRequest)
            .and_then(|req| dispatch(fs, req)),
    )
}

// ---- replies -----------------------------------------------------------

/// Encodes a reply: the payload of a success, or the error.
pub fn encode_reply(result: Result<Vec<u8>, FileServiceError>) -> Vec<u8> {
    // A tag and a length before the payload; every error fits in 64.
    let mut e = Encoder::with_capacity(result.as_ref().map_or(64, |p| 5 + p.len()));
    match result {
        Ok(payload) => e.u8(REPLY_OK).bytes(&payload),
        Err(err) => encode_error(e.u8(REPLY_ERR), &err),
    };
    e.finish()
}

/// Splits a reply into its payload or its decoded error.
///
/// # Errors
///
/// The error the reply carries; [`FileServiceError::BadRequest`] when the
/// reply itself does not decode.
pub fn decode_reply(buf: &[u8]) -> Result<Vec<u8>, FileServiceError> {
    whole(buf, |d| match d.u8()? {
        REPLY_OK => Ok(Ok(d.bytes()?.to_vec())),
        REPLY_ERR => decode_error(d).map(Err),
        _ => Err(DecodeError),
    })?
}

/// Reads all of `payload` with `read`: a payload that is cut short or
/// runs on past what `read` takes is [`FileServiceError::BadRequest`].
fn whole<T>(
    payload: &[u8],
    read: impl FnOnce(&mut Decoder<'_>) -> Result<T, DecodeError>,
) -> Result<T, FileServiceError> {
    let d = &mut Decoder::new(payload);
    read(d)
        .ok()
        .filter(|_| d.is_empty())
        .ok_or(FileServiceError::BadRequest)
}

/// The fid in a [`Request::Create`] reply payload.
///
/// # Errors
///
/// [`FileServiceError::BadRequest`] when the payload does not decode.
pub fn decode_created(payload: &[u8]) -> Result<FileId, FileServiceError> {
    whole(payload, fid)
}

/// The attributes in a [`Request::GetAttr`] reply payload.
///
/// # Errors
///
/// [`FileServiceError::BadRequest`] when the payload does not decode.
pub fn decode_attributes(payload: &[u8]) -> Result<FileAttributes, FileServiceError> {
    whole(payload, FileAttributes::decode)
}

/// Encodes the [`Request::TxnPrepare`] reply payload: one vote per
/// batched transaction, in batch order.
pub fn encode_votes(votes: &[bool]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u32(votes.len() as u32);
    for v in votes {
        e.u8(u8::from(*v));
    }
    e.finish()
}

/// Decodes a [`Request::TxnPrepare`] reply payload.
///
/// # Errors
///
/// [`FileServiceError::BadRequest`] when the payload does not decode or
/// a vote is neither `0` nor `1`.
pub fn decode_votes(payload: &[u8]) -> Result<Vec<bool>, FileServiceError> {
    whole(payload, |d| (0..d.u32()?).map(|_| flag(d)).collect())
}

/// Encodes the [`Request::TxnDecide`] reply payload: whether this
/// delivery resolved a transaction the participant held in doubt.
pub fn encode_resolved(resolved: bool) -> Vec<u8> {
    vec![u8::from(resolved)]
}

/// Decodes a [`Request::TxnDecide`] reply payload.
///
/// # Errors
///
/// [`FileServiceError::BadRequest`] when the payload is not one `0` or
/// `1` byte.
pub fn decode_resolved(payload: &[u8]) -> Result<bool, FileServiceError> {
    whole(payload, flag)
}

/// Encodes a gtid-list reply payload ([`Request::TxnPreparedList`]).
pub fn encode_gtid_list(gtids: &[u64]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u32(gtids.len() as u32);
    for g in gtids {
        e.u64(*g);
    }
    e.finish()
}

/// Decodes a gtid-list reply payload.
///
/// # Errors
///
/// [`FileServiceError::BadRequest`] when the payload does not decode.
pub fn decode_gtid_list(payload: &[u8]) -> Result<Vec<u64>, FileServiceError> {
    whole(payload, |d| (0..d.u32()?).map(|_| d.u64()).collect())
}

/// Encodes a [`FileServiceError`] for an error reply. The matches are
/// exhaustive: a new variant of any of the three error enums does not
/// compile until it has a code here and in [`decode_error`].
fn encode_error<'e>(e: &'e mut Encoder, err: &FileServiceError) -> &'e mut Encoder {
    match err {
        FileServiceError::NotFound(fid) => e.u8(1).u64(fid.0),
        FileServiceError::NotOpen(fid) => e.u8(2).u64(fid.0),
        FileServiceError::Busy(fid) => e.u8(3).u64(fid.0),
        FileServiceError::BeyondEof { fid, offset, size } => {
            e.u8(4).u64(fid.0).u64(*offset).u64(*size)
        }
        FileServiceError::FileTooLarge(fid) => e.u8(5).u64(fid.0),
        FileServiceError::DirectoryFull => e.u8(6),
        FileServiceError::Corrupt(fid) => e.u8(7).u64(fid.0),
        FileServiceError::Disk(d) => encode_disk_error(e.u8(8), d),
        FileServiceError::LeaseFenced(fid) => e.u8(9).u64(fid.0),
        FileServiceError::LeaseRejected(fid) => e.u8(10).u64(fid.0),
        FileServiceError::ParityLost { fid, row } => e.u8(11).u64(fid.0).u64(*row),
        FileServiceError::BadRequest => e.u8(12),
    }
}

fn encode_disk_error<'e>(e: &'e mut Encoder, err: &DiskServiceError) -> &'e mut Encoder {
    match err {
        DiskServiceError::NoSpace {
            requested,
            largest_free,
            total_free,
        } => e.u8(1).u64(*requested).u64(*largest_free).u64(*total_free),
        DiskServiceError::NoStableStorage => e.u8(2),
        DiskServiceError::SizeMismatch { expected, got } => {
            e.u8(3).u64(*expected as u64).u64(*got as u64)
        }
        DiskServiceError::BadExtent => e.u8(4),
        DiskServiceError::Disk(d) => match d {
            DiskError::OutOfRange {
                start,
                count,
                total,
            } => e.u8(5).u8(1).u64(*start).u64(*count).u64(*total),
            DiskError::BadSector(a) => e.u8(5).u8(2).u64(*a),
            DiskError::Crashed => e.u8(5).u8(3),
            DiskError::UnalignedBuffer { len } => e.u8(5).u8(4).u64(*len as u64),
            DiskError::StableLost(a) => e.u8(5).u8(5).u64(*a),
            DiskError::ChecksumMismatch(a) => e.u8(5).u8(6).u64(*a),
        },
    }
}

/// Decodes the body of an error reply back into a [`FileServiceError`].
fn decode_error(d: &mut Decoder<'_>) -> Result<FileServiceError, DecodeError> {
    Ok(match d.u8()? {
        1 => FileServiceError::NotFound(fid(d)?),
        2 => FileServiceError::NotOpen(fid(d)?),
        3 => FileServiceError::Busy(fid(d)?),
        4 => FileServiceError::BeyondEof {
            fid: fid(d)?,
            offset: d.u64()?,
            size: d.u64()?,
        },
        5 => FileServiceError::FileTooLarge(fid(d)?),
        6 => FileServiceError::DirectoryFull,
        7 => FileServiceError::Corrupt(fid(d)?),
        8 => FileServiceError::Disk(decode_disk_error(d)?),
        9 => FileServiceError::LeaseFenced(fid(d)?),
        10 => FileServiceError::LeaseRejected(fid(d)?),
        11 => FileServiceError::ParityLost {
            fid: fid(d)?,
            row: d.u64()?,
        },
        12 => FileServiceError::BadRequest,
        _ => return Err(DecodeError),
    })
}

fn decode_disk_error(d: &mut Decoder<'_>) -> Result<DiskServiceError, DecodeError> {
    Ok(match d.u8()? {
        1 => DiskServiceError::NoSpace {
            requested: d.u64()?,
            largest_free: d.u64()?,
            total_free: d.u64()?,
        },
        2 => DiskServiceError::NoStableStorage,
        3 => DiskServiceError::SizeMismatch {
            expected: size(d)?,
            got: size(d)?,
        },
        4 => DiskServiceError::BadExtent,
        5 => DiskServiceError::Disk(match d.u8()? {
            1 => DiskError::OutOfRange {
                start: d.u64()?,
                count: d.u64()?,
                total: d.u64()?,
            },
            2 => DiskError::BadSector(d.u64()?),
            3 => DiskError::Crashed,
            4 => DiskError::UnalignedBuffer { len: size(d)? },
            5 => DiskError::StableLost(d.u64()?),
            6 => DiskError::ChecksumMismatch(d.u64()?),
            _ => return Err(DecodeError),
        }),
        _ => return Err(DecodeError),
    })
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
    /// transaction-aware endpoints that serve the 2PC requests
    /// ([`Request::TxnPrepare`]…) beside the plain file-service ones.
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
        let req = Request::TxnPrepare(vec![
            (7, vec![(FileId(3), 0, &b"abc"[..])]),
            (
                9,
                vec![(FileId(4), 128, &b"xy"[..]), (FileId(5), 0, &[][..])],
            ),
        ]);
        assert_eq!(Request::decode(&req.encode()), Ok(req));
    }

    /// A frame or a reply is allocated once, at its final size: a buffer
    /// that grew would hold more than was asked for.
    #[test]
    fn frames_and_replies_are_allocated_once() {
        let data = [7u8; 1024];
        let write = Request::Write(FileId(1), 0, &data).encode();
        assert_eq!(write.capacity(), 64 + 1024);
        let token = LeaseToken {
            client: 1,
            fid: FileId(2),
            epoch: 3,
            seq: 4,
        };
        let leased = Request::WriteLeased(FileId(2), 0, &data, token).encode();
        assert_eq!(leased.capacity(), 64 + 1024);
        let batch = vec![
            (
                1,
                vec![(FileId(1), 0, &data[..]), (FileId(2), 9, &data[..5])],
            ),
            (2, vec![(FileId(3), 0, &data[..])]),
        ];
        let prepare = Request::TxnPrepare(batch).encode();
        assert_eq!(prepare.capacity(), 64 + 2 * 12 + 3 * 20 + 2 * 1024 + 5);
        assert_eq!(Request::Read(FileId(1), 0, 4096).encode().capacity(), 64);
        let reply = encode_reply(Ok(vec![0; 1024]));
        assert_eq!((reply.len(), reply.capacity()), (5 + 1024, 5 + 1024));
        assert_eq!(
            encode_reply(Err(FileServiceError::BadRequest)).capacity(),
            64
        );
    }

    /// A batch that claims more transactions or writes than it carries
    /// runs out instead of allocating what it claims.
    #[test]
    fn a_prepare_claiming_more_than_it_carries_does_not_decode() {
        let mut frame = vec![13];
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode(&frame), Err(DecodeError));
        frame = Request::TxnPrepare(vec![(1, vec![])]).encode();
        frame[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode(&frame), Err(DecodeError));
    }

    #[test]
    fn votes_resolved_flags_and_gtid_lists_round_trip() {
        let votes = vec![true, false, true];
        assert_eq!(decode_votes(&encode_votes(&votes)), Ok(votes));
        for resolved in [false, true] {
            assert_eq!(decode_resolved(&encode_resolved(resolved)), Ok(resolved));
        }
        let gtids = vec![1u64, 99, 12345];
        assert_eq!(decode_gtid_list(&encode_gtid_list(&gtids)), Ok(gtids));
        assert_eq!(decode_gtid_list(&encode_gtid_list(&[])), Ok(Vec::new()));
        // Cut short, or running on: not a list.
        let list = encode_gtid_list(&[5]);
        for bad in [&list[..list.len() - 1], &[list.as_slice(), &[0]].concat()] {
            assert_eq!(decode_gtid_list(bad), Err(FileServiceError::BadRequest));
        }
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
            assert_eq!(decode_error(&mut d), Ok(err.clone()));
            assert!(d.is_empty(), "trailing bytes for {err:?}");
            assert_eq!(decode_reply(&encode_reply(Err(err.clone()))), Err(err));
        }
    }

    /// An error body whose code, or whose device code, is unknown does
    /// not decode.
    #[test]
    fn unknown_error_codes_do_not_decode() {
        for body in [
            &[0][..],
            &[13],
            &[255],
            &[8, 0],
            &[8, 6],
            &[8, 5, 7],
            &[8, 5, 255],
        ] {
            assert_eq!(decode_error(&mut Decoder::new(body)), Err(DecodeError));
        }
    }
}
