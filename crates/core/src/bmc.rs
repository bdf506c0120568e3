//! Baseboard Management Controller: sensor registry and wire protocol.
//!
//! The cluster's BMC "monitors and controls the computing units and all
//! related server status, such as power supplies, temperature, and hardware
//! failures", with control messages over I2C/USB/UART (§2.2), and "we
//! utilize BMC's API (implemented atop the I2C protocol) to measure power
//! consumption of the whole server" (§3). This module implements that API
//! as a real framed protocol — encode/decode with checksums — over an
//! in-memory sensor snapshot that the cluster refreshes.

use socc_hw::power::PowerState;
use socc_sim::units::Power;

/// Management commands addressed to the BMC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BmcCommand {
    /// Read one SoC's power in centiwatts.
    ReadSocPower(u8),
    /// Read whole-chassis power in centiwatts.
    ReadChassisPower,
    /// Read one SoC's junction temperature in deci-°C.
    ReadSocTemp(u8),
    /// Command a SoC power-state change.
    SetSocPowerState(u8, PowerState),
    /// Read the fan wall's duty cycle in percent.
    ReadFanDuty,
    /// Read the number of logged events.
    ReadEventCount,
}

/// Responses returned by the BMC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BmcResponse {
    /// Power in centiwatts.
    PowerCw(u32),
    /// Temperature in deci-°C.
    TempDc(u16),
    /// Command acknowledged.
    Ack,
    /// Fan duty in percent.
    FanDutyPct(u8),
    /// Event count.
    Count(u32),
}

/// Protocol decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BmcProtocolError {
    /// Frame shorter than the fixed header.
    ShortFrame,
    /// Checksum mismatch.
    BadChecksum,
    /// Unknown command byte.
    UnknownCommand(u8),
    /// Sensor index out of range.
    BadAddress(u8),
}

impl core::fmt::Display for BmcProtocolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BmcProtocolError::ShortFrame => write!(f, "frame too short"),
            BmcProtocolError::BadChecksum => write!(f, "checksum mismatch"),
            BmcProtocolError::UnknownCommand(c) => write!(f, "unknown command 0x{c:02x}"),
            BmcProtocolError::BadAddress(a) => write!(f, "bad sensor address {a}"),
        }
    }
}

impl std::error::Error for BmcProtocolError {}

const FRAME_START: u8 = 0xB5;

fn power_state_byte(state: PowerState) -> u8 {
    match state {
        PowerState::Off => 0,
        PowerState::Sleep => 1,
        PowerState::Idle => 2,
        PowerState::Active => 3,
    }
}

fn power_state_from_byte(b: u8) -> Option<PowerState> {
    Some(match b {
        0 => PowerState::Off,
        1 => PowerState::Sleep,
        2 => PowerState::Idle,
        3 => PowerState::Active,
        _ => return None,
    })
}

/// Longest frame the protocol uses: header, two payload bytes, checksum.
const MAX_FRAME: usize = 6;

/// One encoded wire frame, held inline: it reads as its bytes
/// (`&frame[..]`) and costs no allocation to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    bytes: [u8; MAX_FRAME],
    len: usize,
}

impl Frame {
    fn push(&mut self, b: u8) {
        self.bytes[self.len] = b;
        self.len += 1;
    }
}

impl core::ops::Deref for Frame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Encodes a command as a wire frame: `[START, cmd, len, payload…, xor]`.
pub fn encode_command(cmd: BmcCommand) -> Frame {
    let (op, payload): (u8, &[u8]) = match cmd {
        BmcCommand::ReadSocPower(i) => (0x01, &[i]),
        BmcCommand::ReadChassisPower => (0x02, &[]),
        BmcCommand::ReadSocTemp(i) => (0x03, &[i]),
        BmcCommand::SetSocPowerState(i, s) => (0x04, &[i, power_state_byte(s)]),
        BmcCommand::ReadFanDuty => (0x05, &[]),
        BmcCommand::ReadEventCount => (0x06, &[]),
    };
    let mut frame = Frame {
        bytes: [0; MAX_FRAME],
        len: 0,
    };
    for b in [FRAME_START, op, payload.len() as u8]
        .into_iter()
        .chain(payload.iter().copied())
    {
        frame.push(b);
    }
    let checksum = frame.iter().fold(0u8, |a, b| a ^ b);
    frame.push(checksum);
    frame
}

/// Decodes a wire frame back into a command.
pub fn decode_command(frame: &[u8]) -> Result<BmcCommand, BmcProtocolError> {
    if frame.len() < 4 {
        return Err(BmcProtocolError::ShortFrame);
    }
    let (body, checksum) = frame.split_at(frame.len() - 1);
    if body.iter().fold(0u8, |a, b| a ^ b) != checksum[0] {
        return Err(BmcProtocolError::BadChecksum);
    }
    if body[0] != FRAME_START {
        return Err(BmcProtocolError::ShortFrame);
    }
    let len = body[2] as usize;
    if body.len() != 3 + len {
        return Err(BmcProtocolError::ShortFrame);
    }
    let payload = &body[3..];
    match body[1] {
        0x01 => Ok(BmcCommand::ReadSocPower(payload[0])),
        0x02 => Ok(BmcCommand::ReadChassisPower),
        0x03 => Ok(BmcCommand::ReadSocTemp(payload[0])),
        0x04 => {
            let state = power_state_from_byte(payload[1])
                .ok_or(BmcProtocolError::UnknownCommand(payload[1]))?;
            Ok(BmcCommand::SetSocPowerState(payload[0], state))
        }
        0x05 => Ok(BmcCommand::ReadFanDuty),
        0x06 => Ok(BmcCommand::ReadEventCount),
        other => Err(BmcProtocolError::UnknownCommand(other)),
    }
}

/// Junction temperature the BMC reports for a SoC in thermal-trip
/// shutdown, whatever the thermal model last computed, until the trip
/// clears.
pub const TRIP_TEMP_C: f64 = 105.0;

/// The BMC: sensor snapshot plus event counter.
#[derive(Debug, Clone, Default)]
pub struct Bmc {
    soc_power_w: Vec<f64>,
    soc_temp_c: Vec<f64>,
    /// SoCs in thermal-trip shutdown: their temperature reads
    /// [`TRIP_TEMP_C`] over the wire while set.
    tripped: Vec<bool>,
    chassis_power_w: f64,
    fan_duty: f64,
    /// Management events seen (wakes, sleeps, faults, migrations); the
    /// events themselves are typed span events in the orchestrator's log.
    event_count: u32,
    /// Power-state change requests produced by protocol commands, drained
    /// by the cluster control loop.
    pending_state_changes: Vec<(usize, PowerState)>,
}

impl Bmc {
    /// Creates a BMC for `soc_count` SoCs.
    pub fn new(soc_count: usize) -> Self {
        Self {
            soc_power_w: vec![0.0; soc_count],
            soc_temp_c: vec![25.0; soc_count],
            tripped: vec![false; soc_count],
            chassis_power_w: 0.0,
            fan_duty: 0.25,
            event_count: 0,
            // Room for one power cycle's command, so the first one queued
            // at run time allocates nothing.
            pending_state_changes: Vec::with_capacity(1),
        }
    }

    /// Refreshes the sensor snapshot (called by the cluster each step).
    pub fn refresh(&mut self, soc_power: &[Power], chassis: Power, fan_duty: f64) {
        for (slot, p) in self.soc_power_w.iter_mut().zip(soc_power) {
            *slot = p.as_watts();
        }
        self.chassis_power_w = chassis.as_watts();
        self.fan_duty = fan_duty;
    }

    /// Updates one SoC's temperature reading.
    pub fn set_temp(&mut self, soc: usize, temp_c: f64) {
        if let Some(t) = self.soc_temp_c.get_mut(soc) {
            *t = temp_c;
        }
    }

    /// Takes every SoC's temperature reading from the thermal model, in
    /// slot order.
    ///
    /// # Panics
    ///
    /// Panics unless there is one temperature per SoC.
    pub fn set_temps(&mut self, temps_c: &[f64]) {
        self.soc_temp_c.copy_from_slice(temps_c);
    }

    /// Marks a SoC as in (or out of) thermal-trip shutdown. While tripped
    /// its temperature reads [`TRIP_TEMP_C`], so the thermal model's
    /// later readings cannot hide the trip from a probe.
    pub fn set_tripped(&mut self, soc: usize, tripped: bool) {
        if let Some(t) = self.tripped.get_mut(soc) {
            *t = tripped;
        }
    }

    /// Counts one management event (what `ReadEventCount` reports).
    pub fn count_event(&mut self) {
        self.event_count = self.event_count.saturating_add(1);
    }

    /// Takes the oldest queued power-state change request, if any. The
    /// queue keeps its buffer, so draining it allocates nothing.
    pub fn next_state_change(&mut self) -> Option<(usize, PowerState)> {
        (!self.pending_state_changes.is_empty()).then(|| self.pending_state_changes.remove(0))
    }

    /// Executes one decoded command against the snapshot.
    pub fn execute(&mut self, cmd: BmcCommand) -> Result<BmcResponse, BmcProtocolError> {
        match cmd {
            BmcCommand::ReadSocPower(i) => {
                let w = self
                    .soc_power_w
                    .get(i as usize)
                    .ok_or(BmcProtocolError::BadAddress(i))?;
                Ok(BmcResponse::PowerCw((w * 100.0).round() as u32))
            }
            BmcCommand::ReadChassisPower => Ok(BmcResponse::PowerCw(
                (self.chassis_power_w * 100.0).round() as u32,
            )),
            BmcCommand::ReadSocTemp(i) => {
                let t = self
                    .soc_temp_c
                    .get(i as usize)
                    .ok_or(BmcProtocolError::BadAddress(i))?;
                let t = if self.tripped[i as usize] {
                    TRIP_TEMP_C
                } else {
                    *t
                };
                Ok(BmcResponse::TempDc((t * 10.0).round() as u16))
            }
            BmcCommand::SetSocPowerState(i, state) => {
                if (i as usize) >= self.soc_power_w.len() {
                    return Err(BmcProtocolError::BadAddress(i));
                }
                self.pending_state_changes.push((i as usize, state));
                Ok(BmcResponse::Ack)
            }
            BmcCommand::ReadFanDuty => Ok(BmcResponse::FanDutyPct(
                (self.fan_duty * 100.0).round() as u8
            )),
            BmcCommand::ReadEventCount => Ok(BmcResponse::Count(self.event_count)),
        }
    }

    /// Full wire round-trip: decode a frame, execute it.
    pub fn handle_frame(&mut self, frame: &[u8]) -> Result<BmcResponse, BmcProtocolError> {
        self.execute(decode_command(frame)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_all_commands() {
        let cmds = [
            BmcCommand::ReadSocPower(17),
            BmcCommand::ReadChassisPower,
            BmcCommand::ReadSocTemp(59),
            BmcCommand::SetSocPowerState(3, PowerState::Sleep),
            BmcCommand::ReadFanDuty,
            BmcCommand::ReadEventCount,
        ];
        for cmd in cmds {
            let frame = encode_command(cmd);
            assert_eq!(decode_command(&frame).unwrap(), cmd);
        }
    }

    #[test]
    fn corrupted_frame_rejected() {
        let mut frame = encode_command(BmcCommand::ReadChassisPower);
        frame.bytes[1] ^= 0x40;
        assert_eq!(decode_command(&frame), Err(BmcProtocolError::BadChecksum));
        assert_eq!(decode_command(&[0xB5]), Err(BmcProtocolError::ShortFrame));
    }

    #[test]
    fn unknown_command_rejected() {
        let mut frame = vec![FRAME_START, 0x7F, 0];
        let checksum = frame.iter().fold(0u8, |a, b| a ^ b);
        frame.push(checksum);
        assert_eq!(
            decode_command(&frame),
            Err(BmcProtocolError::UnknownCommand(0x7F))
        );
    }

    #[test]
    fn power_readout_in_centiwatts() {
        let mut bmc = Bmc::new(2);
        bmc.refresh(
            &[Power::watts(6.61), Power::watts(2.0)],
            Power::watts(589.0),
            0.66,
        );
        let r = bmc
            .handle_frame(&encode_command(BmcCommand::ReadSocPower(0)))
            .unwrap();
        assert_eq!(r, BmcResponse::PowerCw(661));
        let r = bmc
            .handle_frame(&encode_command(BmcCommand::ReadChassisPower))
            .unwrap();
        assert_eq!(r, BmcResponse::PowerCw(58_900));
        let r = bmc
            .handle_frame(&encode_command(BmcCommand::ReadFanDuty))
            .unwrap();
        assert_eq!(r, BmcResponse::FanDutyPct(66));
    }

    #[test]
    fn bad_address_errors() {
        let mut bmc = Bmc::new(2);
        let err = bmc.execute(BmcCommand::ReadSocPower(9)).unwrap_err();
        assert_eq!(err, BmcProtocolError::BadAddress(9));
    }

    #[test]
    fn state_changes_are_queued() {
        let mut bmc = Bmc::new(4);
        bmc.execute(BmcCommand::SetSocPowerState(2, PowerState::Off))
            .unwrap();
        bmc.execute(BmcCommand::SetSocPowerState(3, PowerState::Active))
            .unwrap();
        let changes: Vec<_> = std::iter::from_fn(|| bmc.next_state_change()).collect();
        assert_eq!(changes, vec![(2, PowerState::Off), (3, PowerState::Active)]);
        assert_eq!(bmc.next_state_change(), None);
    }

    #[test]
    fn event_log_counts() {
        let mut bmc = Bmc::new(1);
        bmc.count_event();
        bmc.count_event();
        assert_eq!(
            bmc.execute(BmcCommand::ReadEventCount).unwrap(),
            BmcResponse::Count(2)
        );
    }
}
