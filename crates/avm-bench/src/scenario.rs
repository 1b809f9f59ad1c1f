//! Reusable game-session scenario: N players plus a server, all under AVMMs,
//! exchanging traffic over the simulated LAN while local input events drive
//! the players.

use avm_core::config::{AvmmOptions, ExecConfig};
use avm_core::recorder::{Avmm, AvmmStats};
use avm_core::runtime::Runtime;
use avm_crypto::keys::{Identity, SignatureScheme};
use avm_game::{client_image, game_registry, server_image, ClientConfig, GameClient, ServerConfig};
use avm_net::LinkConfig;
use avm_vm::devices::InputEvent;
use avm_vm::GuestKernel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Description of one game session to simulate.
#[derive(Debug, Clone)]
pub struct GameScenario {
    /// Measurement configuration (bare-hw … avmm-rsa768).
    pub config: ExecConfig,
    /// Player names (each gets its own AVMM host).
    pub players: Vec<String>,
    /// Simulated duration in microseconds.
    pub duration_us: u64,
    /// Runtime tick length in microseconds.
    pub tick_us: u64,
    /// Guest steps each host may execute per tick.
    pub steps_per_tick: u64,
    /// Cheat id installed on the *first* player, if any.
    pub cheat_on_first_player: Option<u32>,
    /// Frame cap (fps) applied to every client, if any (§6.5).
    pub frame_cap_fps: Option<u32>,
    /// Enable the clock-read optimisation (§6.5).
    pub clock_optimization: bool,
    /// RSA modulus size used when the configuration signs (the paper's is
    /// 768; tests and experiments use 512 to stay fast).
    pub rsa_bits: usize,
}

impl GameScenario {
    /// A small three-player scenario in the paper's default configuration.
    pub fn standard(config: ExecConfig, duration_us: u64) -> GameScenario {
        GameScenario {
            config,
            players: vec!["alice".into(), "bob".into(), "charlie".into()],
            duration_us,
            tick_us: 10_000,
            steps_per_tick: 30_000,
            cheat_on_first_player: None,
            frame_cap_fps: None,
            clock_optimization: false,
            rsa_bits: 768,
        }
    }

    /// The signature scheme actually used by this scenario.
    fn scheme(&self) -> SignatureScheme {
        match self.config.signature_scheme() {
            SignatureScheme::Null => SignatureScheme::Null,
            SignatureScheme::Rsa(_) => SignatureScheme::Rsa(self.rsa_bits),
        }
    }

    /// Runs the scenario and returns the measurement data.
    pub fn run(&self) -> ScenarioResult {
        let registry = game_registry();
        let server_name = "server";
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let scheme = self.scheme();

        // Identities: one per player plus the server.
        let mut identities: Vec<Identity> = Vec::new();
        for p in &self.players {
            identities.push(Identity::generate(&mut rng, p, scheme));
        }
        let server_id = Identity::generate(&mut rng, server_name, scheme);

        let mut options = AvmmOptions::for_config(self.config).with_scheme(scheme);
        if self.clock_optimization {
            options = options.with_clock_optimization();
        }

        // Build the AVMM hosts.
        let mut rt = Runtime::new(LinkConfig::default());
        rt.set_steps_per_slice(self.steps_per_tick);
        let mut client_images = Vec::new();
        for (i, player) in self.players.iter().enumerate() {
            let mut cfg = ClientConfig::new(player, server_name);
            if let Some(fps) = self.frame_cap_fps {
                cfg = cfg.with_frame_cap(fps);
            }
            if i == 0 {
                if let Some(cheat) = self.cheat_on_first_player {
                    cfg = cfg.with_cheat(cheat);
                }
            }
            let image = client_image(&cfg);
            let mut avmm = Avmm::new(
                player,
                &image,
                &registry,
                identities[i].signing_key.clone(),
                options.clone(),
            )
            .expect("client avmm");
            avmm.add_peer(server_name, server_id.verifying_key());
            rt.add_host(avmm);
            // The *reference* image is always the honest configuration.
            let mut honest_cfg = ClientConfig::new(player, server_name);
            if let Some(fps) = self.frame_cap_fps {
                honest_cfg = honest_cfg.with_frame_cap(fps);
            }
            client_images.push(client_image(&honest_cfg));
        }
        let server_cfg = ServerConfig::new(server_name, &self.players);
        let server_img = server_image(&server_cfg);
        let mut server_avmm = Avmm::new(
            server_name,
            &server_img,
            &registry,
            server_id.signing_key.clone(),
            options.clone(),
        )
        .expect("server avmm");
        for (i, p) in self.players.iter().enumerate() {
            server_avmm.add_peer(p, identities[i].verifying_key());
        }
        rt.add_host(server_avmm);

        // Drive the session: periodic movement/fire input on every player.
        let mut elapsed = 0u64;
        let mut input_timer = 0u64;
        while elapsed < self.duration_us {
            if input_timer == 0 {
                for (i, p) in self.players.iter().enumerate() {
                    if let Some(host) = rt.host_mut(p) {
                        host.inject_input(InputEvent {
                            device: 0,
                            code: avm_game::client::INPUT_MOVE_X,
                            value: if i % 2 == 0 { 1 } else { -1 },
                        });
                        host.inject_input(InputEvent {
                            device: 0,
                            code: avm_game::client::INPUT_FIRE,
                            value: 1,
                        });
                    }
                }
                input_timer = 200_000; // new input burst every 200 ms
            }
            let dt = self.tick_us.min(self.duration_us - elapsed);
            rt.tick(dt).expect("tick");
            elapsed += dt;
            input_timer = input_timer.saturating_sub(dt);
        }

        ScenarioResult {
            server_name: server_name.to_string(),
            players: self.players.clone(),
            identities,
            server_identity: server_id,
            reference_client_images: client_images,
            reference_server_image: server_img,
            duration_us: self.duration_us,
            runtime: rt,
        }
    }
}

/// Everything an experiment needs after a scenario has run.
pub struct ScenarioResult {
    /// Name of the server host.
    pub server_name: String,
    /// Player names.
    pub players: Vec<String>,
    /// Player identities (keys).
    pub identities: Vec<Identity>,
    /// Server identity.
    pub server_identity: Identity,
    /// Reference (honest) client image for each player, in order.
    pub reference_client_images: Vec<avm_vm::VmImage>,
    /// Reference server image.
    pub reference_server_image: avm_vm::VmImage,
    /// Simulated duration.
    pub duration_us: u64,
    /// The runtime, still holding every AVMM and the network.
    pub runtime: Runtime,
}

impl ScenarioResult {
    /// The AVMM of a named host.
    pub fn avmm(&self, name: &str) -> &Avmm {
        self.runtime.host(name).expect("host exists")
    }

    /// Recorder statistics of a named host.
    pub fn stats(&self, name: &str) -> AvmmStats {
        self.avmm(name).stats()
    }

    /// Total log bytes recorded by a host.
    pub fn log_bytes(&self, name: &str) -> u64 {
        self.avmm(name).log_bytes()
    }

    /// Frames rendered by a player's game client, recovered from the guest
    /// kernel state.
    pub fn frames_rendered(&self, player: &str) -> u64 {
        let cpu_state = self.avmm(player).machine().save_cpu_state();
        // NativeCpu state = [halted byte] ++ kernel state.
        let mut probe = GameClient::new(ClientConfig::new("probe", "probe"));
        if cpu_state.len() > 1 && probe.restore_state(&cpu_state[1..]).is_ok() {
            probe.frames_rendered()
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(config: ExecConfig) -> GameScenario {
        GameScenario {
            rsa_bits: 512,
            steps_per_tick: 8_000,
            ..GameScenario::standard(config, 300_000)
        }
    }

    #[test]
    fn scenario_produces_traffic_logs_and_frames() {
        let result = tiny(ExecConfig::AvmmRsa768).run();
        for p in &result.players {
            let steps = result.avmm(p).machine().step_count();
            assert!(steps > 0, "{p} executed no steps");
            assert!(result.frames_rendered(p) > 0, "{p} rendered no frames");
            assert!(result.stats(p).packets_out > 0, "{p} sent no packets");
            assert!(result.log_bytes(p) > 0);
        }
        let server_stats = result.stats("server");
        assert!(server_stats.packets_in > 0);
        assert!(server_stats.packets_out > 0);
    }

    #[test]
    fn honest_player_passes_audit_after_scenario() {
        let result = tiny(ExecConfig::AvmmRsa768).run();
        let player = &result.players[1];
        let avmm = result.avmm(player);
        let (prev, segment) = avmm.log().segment(1, avmm.log().len() as u64).unwrap();
        let report = avm_core::audit::audit_log(
            player,
            &prev,
            &segment,
            &[],
            &result.identities[1].verifying_key(),
            &result.reference_client_images[1],
            &game_registry(),
        );
        assert!(report.passed(), "{:?}", report.fault());
    }

    #[test]
    fn cheating_player_fails_audit_after_scenario() {
        let mut scenario = tiny(ExecConfig::AvmmRsa768);
        scenario.cheat_on_first_player = Some(
            avm_game::cheats::cheat_by_name("unlimited-ammo")
                .unwrap()
                .id,
        );
        let result = scenario.run();
        let cheater = &result.players[0];
        let avmm = result.avmm(cheater);
        let (prev, segment) = avmm.log().segment(1, avmm.log().len() as u64).unwrap();
        let report = avm_core::audit::audit_log(
            cheater,
            &prev,
            &segment,
            &[],
            &result.identities[0].verifying_key(),
            &result.reference_client_images[0],
            &game_registry(),
        );
        assert!(!report.passed(), "cheater unexpectedly passed the audit");
    }
}
